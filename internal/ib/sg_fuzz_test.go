package ib

import (
	"bytes"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
)

// fuzzType decodes shape into a vector or an indexed type over Byte,
// Int32 or Float64; once shape runs out every choice is 0. Indexed
// blocks may be empty, abut, leave gaps or run backwards; Commit rejects
// the rest.
func fuzzType(indexed bool, shape []byte) (*datatype.Datatype, error) {
	next := func(n int) int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b) % n
	}
	base := []*datatype.Datatype{datatype.Byte, datatype.Int32, datatype.Float64}[next(3)]
	if !indexed {
		bl := 1 + next(4)
		return datatype.Vector(1+next(12), bl, bl+next(6), base)
	}
	n := 1 + next(6)
	bls, displs := make([]int, n), make([]int, n)
	at := 0
	for i := range bls {
		bls[i], displs[i] = next(4), at+next(5)
		at = displs[i] + bls[i]
	}
	if next(2) == 1 {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			bls[i], bls[j] = bls[j], bls[i]
			displs[i], displs[j] = displs[j], displs[i]
		}
	}
	return datatype.Indexed(bls, displs, base)
}

// refPieces is the reference lowering of the packed range [off, off+n)
// of segs: a walk of the segments in stream order, clipped to the range
// and cut at every chunk boundary, with a piece that continues its
// predecessor in typed memory inside one chunk merged into it. It
// returns the typed pieces in stream order and the scatter/gather entry
// count.
func refPieces(segs []datatype.Segment, off, n, chunk int) (pieces []datatype.Segment, entries int) {
	pos := 0
	for _, s := range segs {
		lo, hi := max(pos, off), min(pos+s.Len, off+n)
		for lo < hi {
			end := min(hi, (lo/chunk+1)*chunk)
			typed := s.Off + lo - pos
			if k := len(pieces) - 1; k >= 0 && lo%chunk != 0 && pieces[k].Off+pieces[k].Len == typed {
				pieces[k].Len += end - lo
			} else {
				pieces = append(pieces, datatype.Segment{Off: typed, Len: end - lo})
				entries++
			}
			lo = end
		}
		pos += s.Len
	}
	return pieces, entries
}

// FuzzSGDesc lowers arbitrary vector and indexed types, counts and chunk
// sizes to a descriptor over a chunk-aligned packed range, narrows it
// with sub at a chunk-aligned offset the way scatterDeposit does, and
// checks both descriptors against a segment-by-segment walk of
// Datatype.SegmentsOf: the entry count, the gathered bytes, and the
// typed buffer a scatter leaves, every byte outside the range untouched.
// The committed corpus under testdata/fuzz/FuzzSGDesc runs with plain go
// test.
func FuzzSGDesc(f *testing.F) {
	f.Add(false, []byte{0, 5, 3, 2}, uint8(1), uint16(7), uint16(0x0201), uint16(0x0101))
	f.Add(true, []byte{1, 4, 2, 0, 3, 3, 0, 1, 2, 4, 1}, uint8(2), uint16(5), uint16(0x0300), uint16(0x0102))
	f.Add(true, []byte{2, 3, 1, 0, 0, 0, 2, 2, 0}, uint8(3), uint16(16), uint16(0x0101), uint16(0x0001))
	f.Fuzz(func(t *testing.T, indexed bool, shape []byte, countRaw uint8, chunkRaw, descRaw, subRaw uint16) {
		dt, err := fuzzType(indexed, shape)
		if err != nil || dt.Commit() != nil {
			return
		}
		count := 1 + int(countRaw%4)
		total := count * dt.Size()
		if total == 0 {
			return
		}
		chunk := 1 + int(chunkRaw)%total
		plan := dt.ChunkPlan(count, chunk)
		segs := dt.SegmentsOf(count)
		window := 0
		for _, s := range segs {
			window = max(window, s.Off+s.Len)
		}
		buf := mem.NewDeviceSpace("sgfuzz", 0, window).Base()
		typed := func(i int) byte { return byte(i*7 + 1) }

		// The descriptor covers chunks [c0, c0+k); sub narrows it to its
		// chunks [r0, r0+m).
		chunks := plan.Chunks()
		c0 := int(descRaw&0xff) % chunks
		k := 1 + int(descRaw>>8)%(chunks-c0)
		end := min((c0+k)*chunk, total)
		desc := SGDesc{Plan: plan, Buf: buf, Off: c0 * chunk, N: end - c0*chunk}
		r0 := int(subRaw&0xff) % k
		m := 1 + int(subRaw>>8)%(k-r0)
		rel := r0 * chunk
		sub := desc.sub(rel, min(desc.Off+(r0+m)*chunk, total)-desc.Off-rel)

		for _, sg := range []SGDesc{desc, sub} {
			pieces, entries := refPieces(segs, sg.Off, sg.N, chunk)
			if got := sg.Segments(); got != entries {
				t.Fatalf("%s count=%d chunk=%d range [%d,%d): %d entries, want %d",
					dt, count, chunk, sg.Off, sg.Off+sg.N, got, entries)
			}
			mem.Fill(buf, window, typed)
			want := make([]byte, 0, sg.N)
			for _, p := range pieces {
				want = append(want, buf.Add(p.Off).Bytes(p.Len)...)
			}
			got := make([]byte, sg.N)
			sg.gather(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s count=%d chunk=%d range [%d,%d): gathered %v, want %v",
					dt, count, chunk, sg.Off, sg.Off+sg.N, got, want)
			}

			packed := make([]byte, sg.N)
			for i := range packed {
				packed[i] = byte(0x80 | i)
			}
			wantTyped := make([]byte, window)
			for i := range wantTyped {
				wantTyped[i] = typed(i)
			}
			at := 0
			for _, p := range pieces {
				at += copy(wantTyped[p.Off:p.Off+p.Len], packed[at:])
			}
			sg.scatter(packed)
			if gotTyped := buf.Bytes(window); !bytes.Equal(gotTyped, wantTyped) {
				t.Fatalf("%s count=%d chunk=%d range [%d,%d): scatter left %v, want %v",
					dt, count, chunk, sg.Off, sg.Off+sg.N, gotTyped, wantTyped)
			}
		}
	})
}
