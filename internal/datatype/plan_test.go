package datatype

import (
	"math/rand"
	"testing"

	"mv2sim/internal/mem"
)

// planTestTypes builds a representative committed-type zoo: uniform
// vectors, contiguous runs, irregular indexed maps, structs, resized
// extents, and nested constructions.
func planTestTypes(t *testing.T) map[string]*Datatype {
	t.Helper()
	types := map[string]*Datatype{}
	add := func(name string, dt *Datatype, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		types[name] = dt.MustCommit()
	}
	types["byte"] = Byte
	types["double"] = Float64
	v1, err := Vector(16, 4, 8, Int32)
	add("vector", v1, err)
	v2, err := Vector(7, 1, 5, Float32)
	add("column", v2, err)
	c1, err := Contiguous(12, Float64)
	add("contig", c1, err)
	ix, err := Indexed([]int{3, 1, 5, 2}, []int{9, 0, 20, 3}, Int32)
	add("indexed", ix, err)
	st, err := Struct([]int{1, 2, 3}, []int{0, 8, 32}, []*Datatype{Int32, Float64, Byte})
	add("struct", st, err)
	hv, err := Hvector(5, 3, 40, Float64)
	add("hvector", hv, err)
	inner, err := Vector(3, 2, 4, Int32)
	if err != nil {
		t.Fatal(err)
	}
	nest, err := Contiguous(2, inner.MustCommit())
	add("nested", nest, err)
	rz, err := Resized(v1, -8, v1.Span(1)+24)
	add("resized", rz, err)
	sa, err := Subarray([]int{8, 8}, []int{4, 4}, []int{2, 2}, RowMajor, Float32)
	add("subarray", sa, err)
	return types
}

// TestUniform2DMatchesSlowPath pins the analytic commit-time Uniform2D
// against the original segment-expansion derivation for the whole type
// zoo and a spread of counts.
func TestUniform2DMatchesSlowPath(t *testing.T) {
	for name, dt := range planTestTypes(t) {
		for _, count := range []int{0, 1, 2, 3, 5, 17} {
			fast, okFast := dt.Uniform2D(count)
			slow, okSlow := dt.uniform2DSlow(count)
			if okFast != okSlow || (okFast && fast != slow) {
				t.Errorf("%s count=%d: analytic (%+v,%v) != slow (%+v,%v)",
					name, count, fast, okFast, slow, okSlow)
			}
		}
	}
}

// TestUniform2DResizedOverlap covers the extent-smaller-than-span corner:
// rows of consecutive elements overlap, so no 2D shape exists for
// count > 1 even though one element is a single segment.
func TestUniform2DResizedOverlap(t *testing.T) {
	base, err := Contiguous(4, Byte)
	if err != nil {
		t.Fatal(err)
	}
	rz, err := Resized(base.MustCommit(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rz.MustCommit()
	if _, ok := rz.Uniform2D(1); !ok {
		t.Error("single element must still be a 1-row shape")
	}
	if sh, ok := rz.Uniform2D(3); ok {
		t.Errorf("overlapping rows reported uniform: %+v", sh)
	}
	if _, okSlow := rz.uniform2DSlow(3); okSlow {
		t.Error("slow path disagrees on overlap case")
	}
}

// TestChunkPlanMatchesPackRange checks that packing and unpacking through
// the cached plan is byte-identical to the uncached PackRange walk, over
// several chunk sizes including non-divisors of the total.
func TestChunkPlanMatchesPackRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, dt := range planTestTypes(t) {
		for _, count := range []int{1, 3, 8} {
			total := count * dt.Size()
			if total == 0 {
				continue
			}
			span := dt.Span(count)
			pad := 0
			if dt.LB() < 0 {
				pad = -dt.LB()
			}
			for _, chunkBytes := range []int{16, 64, 100, total, total + 99} {
				plan := dt.ChunkPlan(count, chunkBytes)
				if plan.Total() != total {
					t.Fatalf("%s: plan total %d != %d", name, plan.Total(), total)
				}
				if got, want := plan.Chunks(), (total+chunkBytes-1)/chunkBytes; got != want {
					t.Fatalf("%s: plan chunks %d != %d", name, got, want)
				}
				h := mem.NewHostSpace("h", pad+span+2*total+64)
				src := h.Base().Add(pad)
				mem.Fill(h.Base(), pad+span, func(i int) byte { return byte(rng.Intn(256)) })
				wantPacked := h.Base().Add(pad + span)
				gotPacked := h.Base().Add(pad + span + total)
				dt.PackRange(wantPacked, src, count, 0, total)
				sum := 0
				for c := 0; c < plan.Chunks(); c++ {
					n := plan.ChunkLen(c)
					sum += n
					plan.PackChunk(gotPacked.Add(c*chunkBytes), src, c)
					if plan.SegmentCount(c) <= 0 {
						t.Fatalf("%s: chunk %d has no segments", name, c)
					}
				}
				if sum != total {
					t.Fatalf("%s: chunk lengths sum to %d, want %d", name, sum, total)
				}
				if !mem.Equal(gotPacked, wantPacked, total) {
					t.Fatalf("%s count=%d chunk=%d: plan pack differs from PackRange",
						name, count, chunkBytes)
				}
				// Round-trip: scatter back into a zeroed buffer and compare
				// the touched bytes, chunk-run by chunk-run.
				h2 := mem.NewHostSpace("h2", pad+span)
				dst := h2.Base().Add(pad)
				for off := 0; off < total; {
					runChunks := 1 + rng.Intn(3)
					n := runChunks * chunkBytes
					if off+n > total {
						n = total - off
					}
					plan.UnpackRange(dst, gotPacked.Add(off), off, n)
					off += n
				}
				for _, s := range dt.SegmentsOf(count) {
					if !mem.Equal(dst.Add(s.Off), src.Add(s.Off), s.Len) {
						t.Fatalf("%s: segment %+v did not round-trip through plan", name, s)
					}
				}
			}
		}
	}
}

// TestChunkPlanCached checks the lazy cache returns the identical plan
// object for repeated geometry and distinct objects for distinct
// geometry.
func TestChunkPlanCached(t *testing.T) {
	v, _ := Vector(64, 4, 8, Int32)
	v.MustCommit()
	a := v.ChunkPlan(10, 256)
	if b := v.ChunkPlan(10, 256); a != b {
		t.Error("same geometry returned a rebuilt plan")
	}
	if c := v.ChunkPlan(10, 512); c == a {
		t.Error("different chunk size returned the cached plan")
	}
	if d := v.ChunkPlan(9, 256); d == a {
		t.Error("different count returned the cached plan")
	}
}

// TestChunkPlanSteadyStateAllocs pins the zero-allocation contract of the
// steady-state chunk path: after the plan is built, every range walk on
// the plan and on the type itself allocates nothing.
func TestChunkPlanSteadyStateAllocs(t *testing.T) {
	ix, _ := Indexed([]int{3, 1, 5, 2}, []int{9, 0, 20, 3}, Int32)
	ix.MustCommit()
	const count = 32
	total := count * ix.Size()
	h := mem.NewHostSpace("h", ix.Span(count)+total)
	src, packed := h.Base(), h.Base().Add(ix.Span(count))
	plan := ix.ChunkPlan(count, 64)
	buf := make([]byte, total)
	kd := plan.Kernel(128, 256)
	c := 0
	walks := map[string]func(){
		"PackChunk": func() {
			plan.PackChunk(packed.Add(c*64), src, c)
			c = (c + 1) % plan.Chunks()
		},
		"PackRange":        func() { plan.PackRange(packed, src, 64, 192) },
		"UnpackRange":      func() { plan.UnpackRange(src, packed, 0, total) },
		"PackRangeBytes":   func() { plan.PackRangeBytes(buf[:128], src, 256, 128) },
		"UnpackRangeBytes": func() { plan.UnpackRangeBytes(src, buf, 0, total) },
		"KernelPack":       func() { kd.Pack(packed, src) },
		"RangeSegments":    func() { _ = plan.RangeSegments(0, total) },
		"Pack":             func() { ix.Pack(packed, src, count) },
		"UnpackBytes":      func() { ix.UnpackBytes(src, buf, count) },
		"TypePackRange":    func() { ix.PackRange(packed, src, count, 5, 900) },
		"Uniform2D":        func() { _, _ = ix.Uniform2D(count) },
	}
	for name, f := range walks {
		if avg := testing.AllocsPerRun(200, f); avg != 0 {
			t.Errorf("steady-state %s allocates %.1f times per call, want 0", name, avg)
		}
	}
}

// TestChunkPlanAlignment checks the chunk-alignment contract is enforced.
func TestChunkPlanAlignment(t *testing.T) {
	v, _ := Vector(8, 4, 8, Int32)
	v.MustCommit()
	plan := v.ChunkPlan(4, 32)
	h := mem.NewHostSpace("h", v.Span(4)+plan.Total())
	defer func() {
		if recover() == nil {
			t.Error("misaligned plan range did not panic")
		}
	}()
	plan.PackRange(h.Base().Add(v.Span(4)), h.Base(), 8, 16)
}
