package datatype

import (
	"bytes"
	"testing"

	"mv2sim/internal/mem"
)

// typeProgram reads a fuzz input as a sequence of small choices; once the
// input runs out every choice is 0.
type typeProgram struct {
	data []byte
}

func (p *typeProgram) intn(n int) int {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b) % n
}

// build decodes a nested type of at most depth constructor levels over
// Byte/Int32/Float64. Displacements, strides and extents may overlap,
// run backwards or leave a negative lower bound; Commit decides.
func (p *typeProgram) build(depth int) (*Datatype, error) {
	basics := []*Datatype{Byte, Int32, Float64}
	if depth == 0 || p.intn(4) == 0 {
		return basics[p.intn(len(basics))], nil
	}
	inner, err := p.build(depth - 1)
	if err != nil {
		return nil, err
	}
	if err := inner.Commit(); err != nil {
		return nil, err
	}
	switch p.intn(8) {
	case 0:
		return Contiguous(p.intn(4), inner)
	case 1:
		bl := 1 + p.intn(3)
		return Vector(1+p.intn(6), bl, bl+p.intn(4)-1, inner)
	case 2:
		bl := 1 + p.intn(3)
		return Hvector(1+p.intn(6), bl, bl*inner.Extent()+p.intn(24)-8, inner)
	case 3:
		n := 1 + p.intn(4)
		bls, displs := make([]int, n), make([]int, n)
		for i := range bls {
			bls[i], displs[i] = p.intn(4), p.intn(12)
		}
		return Indexed(bls, displs, inner)
	case 4:
		n := 1 + p.intn(3)
		bls, displs, types := make([]int, n), make([]int, n), make([]*Datatype, n)
		at := p.intn(17) - 8
		for i := range bls {
			if p.intn(2) == 0 {
				types[i] = inner
			} else {
				types[i] = basics[p.intn(len(basics))]
			}
			bls[i], displs[i] = 1+p.intn(2), at
			at += bls[i]*types[i].Extent() + p.intn(9) - 2
		}
		return Struct(bls, displs, types)
	case 5:
		n := 1 + p.intn(3)
		sizes, subs, starts := make([]int, n), make([]int, n), make([]int, n)
		for d := range sizes {
			sizes[d] = 1 + p.intn(5)
			subs[d] = 1 + p.intn(sizes[d])
			starts[d] = p.intn(sizes[d] - subs[d] + 1)
		}
		return Subarray(sizes, subs, starts, Order(p.intn(2)), inner)
	case 6:
		return Resized(inner, p.intn(9)-4, p.intn(2*inner.Extent()+8))
	default:
		return Hindexed([]int{1 + p.intn(2), 1 + p.intn(2)}, []int{p.intn(40), p.intn(40)}, inner)
	}
}

// FuzzRunForm builds a random nested type and checks every run-form
// answer — commit verdict, segment counts, shapes, and all pack, unpack
// and chunk-plan walks — against the flattened reference walkers. The
// committed corpus under testdata/fuzz/FuzzRunForm runs with plain
// go test.
func FuzzRunForm(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 5, 3, 0}, uint8(2), uint16(7))
	f.Add([]byte{1, 5, 1, 2, 4, 3, 1, 1, 3}, uint8(3), uint16(64))
	f.Add([]byte{1, 4, 1, 3, 0, 1, 1, 0, 1}, uint8(4), uint16(5))
	f.Add([]byte{1, 6, 1, 1, 4, 2, 1, 0, 9}, uint8(3), uint16(12))
	f.Fuzz(func(t *testing.T, prog []byte, countRaw uint8, chunkRaw uint16) {
		p := &typeProgram{data: prog}
		dt, err := p.build(3)
		if err != nil {
			return
		}
		iov := dt.IOV()
		if err := dt.Commit(); (err != nil) != segmentsOverlap(append([]Segment(nil), iov...)) {
			t.Fatalf("%s: Commit = %v, but reference overlap says %v", dt, err, err == nil)
		}
		if !dt.Committed() {
			return
		}
		count := int(countRaw % 5)
		if dt.Span(count) > 1<<16 {
			return
		}
		checkRunForm(t, dt, iov, count, 1+int(chunkRaw%512))
	})
}

func checkRunForm(t *testing.T, dt *Datatype, iov []Segment, count, chunkBytes int) {
	lo, ext := dt.TrueExtent()
	sum, refLo, refHi := 0, 0, 0
	for i, s := range iov {
		sum += s.Len
		if i == 0 || s.Off < refLo {
			refLo = s.Off
		}
		if i == 0 || s.Off+s.Len > refHi {
			refHi = s.Off + s.Len
		}
	}
	if sum != dt.Size() || dt.GetEnvelope().NumSegments != len(iov) || lo != refLo || ext != refHi-refLo {
		t.Fatalf("%s: iov %v vs size %d, envelope %+v, true extent (%d,%d)",
			dt, iov, dt.Size(), dt.GetEnvelope(), lo, ext)
	}
	if want := len(iov) * count; count > 0 && !dt.IsContiguous() && dt.SegmentCount(count) != want {
		t.Fatalf("%s: SegmentCount(%d) = %d, want %d", dt, count, dt.SegmentCount(count), want)
	}
	for c := 0; c <= count; c++ {
		fast, okFast := dt.Uniform2D(c)
		slow, okSlow := dt.uniform2DSlow(c)
		if okFast != okSlow || (okFast && fast != slow) {
			t.Fatalf("%s count=%d: Uniform2D (%+v,%v), slow path (%+v,%v)", dt, c, fast, okFast, slow, okSlow)
		}
	}
	total := count * dt.Size()
	if total == 0 {
		return
	}

	// Typed displacement d lives at typed[pad+d]; the packed stream sits
	// past the typed window, which also holds the base pointer itself.
	pad := max(0, -lo)
	window := max(pad, pad+lo+ext+(count-1)*dt.Extent())
	h := mem.NewHostSpace("h", window+total)
	base := h.Base().Add(pad)
	packedPtr := h.Base().Add(window)
	src := make([]byte, window)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	want := refPack(dt, src, pad, count)
	reset := func(b []byte) {
		copy(h.Base().Bytes(window), b)
		clear(packedPtr.Bytes(total))
	}

	// Whole-message packs.
	reset(src)
	dt.Pack(packedPtr, base, count)
	expectBytes(t, dt, "Pack", packedPtr.Bytes(total), want)
	got := make([]byte, total)
	dt.PackBytes(got, base, count)
	expectBytes(t, dt, "PackBytes", got, want)

	// Unpacks scatter into a zeroed typed window.
	wantTyped := make([]byte, window)
	refUnpack(dt, wantTyped, pad, count, want)
	reset(make([]byte, window))
	copy(packedPtr.Bytes(total), want)
	dt.Unpack(base, packedPtr, count)
	expectBytes(t, dt, "Unpack", h.Base().Bytes(window), wantTyped)
	reset(make([]byte, window))
	dt.UnpackBytes(base, want, count)
	expectBytes(t, dt, "UnpackBytes", h.Base().Bytes(window), wantTyped)

	// Unaligned partial packs over a partition of the stream.
	reset(src)
	for off := 0; off < total; off += chunkBytes {
		n := min(chunkBytes, total-off)
		dt.PackRange(packedPtr.Add(off), base, count, off, n)
	}
	expectBytes(t, dt, "PackRange", packedPtr.Bytes(total), want)

	// Chunk plans: counts against the flattened derivation, walks against
	// the reference bytes.
	checkPlanCounts(t, dt.String(), dt, count, chunkBytes)
	plan := dt.ChunkPlan(count, chunkBytes)
	reset(src)
	for c := 0; c < plan.Chunks(); c++ {
		off := c * chunkBytes
		if c%2 == 0 {
			plan.Kernel(off, plan.ChunkLen(c)).Pack(packedPtr.Add(off), base)
		} else {
			plan.PackRangeBytes(got[off:off+plan.ChunkLen(c)], base, off, plan.ChunkLen(c))
			copy(packedPtr.Add(off).Bytes(plan.ChunkLen(c)), got[off:off+plan.ChunkLen(c)])
		}
	}
	expectBytes(t, dt, "plan pack", packedPtr.Bytes(total), want)
	reset(make([]byte, window))
	copy(packedPtr.Bytes(total), want)
	plan.UnpackRange(base, packedPtr, 0, total)
	expectBytes(t, dt, "plan UnpackRange", h.Base().Bytes(window), wantTyped)
	reset(make([]byte, window))
	plan.UnpackRangeBytes(base, want, 0, total)
	expectBytes(t, dt, "plan UnpackRangeBytes", h.Base().Bytes(window), wantTyped)
}

func expectBytes(t *testing.T, dt *Datatype, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %s = %v, want %v", dt, what, got, want)
	}
}
