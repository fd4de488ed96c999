package datatype

import (
	"runtime"
	"testing"
)

// TestSegmentCountAbuttingElements pins SegmentCount to count × the
// per-element segment count even where elements abut: element 0 of
// Vector(2,1,2,Int32) ends at byte 12, where element 1 begins, so
// SegmentsOf(2) coalesces the two into three segments while SegmentCount
// still reports four. Host pack cost models and their goldens depend on
// the uncoalesced number.
func TestSegmentCountAbuttingElements(t *testing.T) {
	v, _ := Vector(2, 1, 2, Int32)
	v.MustCommit()
	if got := v.SegmentCount(2); got != 4 {
		t.Errorf("SegmentCount(2) = %d, want 4", got)
	}
	want := []Segment{{0, 4}, {8, 8}, {20, 4}}
	if got := v.SegmentsOf(2); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("SegmentsOf(2) = %v, want %v", got, want)
	}
}

// TestRunFormIsAnalytic checks the constructors build run lists directly:
// a vector of any row count is one run, a 2D subarray face is one run, and
// a subarray whose rows span the whole array collapses to one segment.
func TestRunFormIsAnalytic(t *testing.T) {
	v, _ := Vector(1<<20, 4, 64, Byte)
	face, _ := Subarray([]int{66, 66, 66}, []int{1, 64, 64}, []int{1, 1, 1}, RowMajor, Float64)
	slab, _ := Subarray([]int{8, 4, 4}, []int{2, 4, 4}, []int{3, 0, 0}, RowMajor, Byte)
	cases := []struct {
		name string
		dt   *Datatype
		want []run
	}{
		{"vector", v, []run{{off: 0, len: 4, stride: 64, n: 1 << 20}}},
		{"face", face, []run{{off: (66*66 + 66 + 1) * 8, len: 64 * 8, stride: 66 * 8, n: 64}}},
		{"slab", slab, []run{{off: 48, len: 32, n: 1}}},
	}
	for _, c := range cases {
		c.dt.MustCommit()
		if len(c.dt.runs) != len(c.want) {
			t.Fatalf("%s: runs = %+v, want %+v", c.name, c.dt.runs, c.want)
		}
		for i, r := range c.dt.runs {
			if w := c.want[i]; r.off != w.off || r.len != w.len || r.n != w.n || (r.n > 1 && r.stride != w.stride) {
				t.Errorf("%s: run %d = %+v, want %+v", c.name, i, r, w)
			}
		}
	}
}

// TestGrownPieceRejoinsRun covers the coalescer's merge path: the blocks
// 8@0, 4@16, 4@20 coalesce to 8@0, 8@16 — a uniform two-row grid — so
// the grown second piece must join the first piece's run, or Uniform2D
// would miss the shape.
func TestGrownPieceRejoinsRun(t *testing.T) {
	hx, _ := Hindexed([]int{2, 1, 1}, []int{0, 16, 20}, Int32)
	hx.MustCommit()
	if len(hx.runs) != 1 {
		t.Fatalf("runs = %+v, want one run", hx.runs)
	}
	want := Shape2D{Width: 8, Pitch: 16, Rows: 2}
	if got, ok := hx.Uniform2D(1); !ok || got != want {
		t.Errorf("Uniform2D(1) = (%+v,%v), want (%+v,true)", got, ok, want)
	}
}

// TestChunkPlanMatchesFlatDerivation checks every chunk's segment count,
// and each multi-chunk range's, against the flattened one-segment-per-
// piece plan derivation.
func TestChunkPlanMatchesFlatDerivation(t *testing.T) {
	for name, dt := range planTestTypes(t) {
		for _, count := range []int{1, 3, 8} {
			total := count * dt.Size()
			for _, chunkBytes := range []int{4, 16, 100, total, total + 99} {
				checkPlanCounts(t, name, dt, count, chunkBytes)
			}
		}
	}
}

// checkPlanCounts compares a plan's per-chunk and per-range segment
// counts with refChunkSegs.
func checkPlanCounts(t *testing.T, name string, dt *Datatype, count, chunkBytes int) {
	t.Helper()
	plan := dt.ChunkPlan(count, chunkBytes)
	ref := refChunkSegs(dt, count, chunkBytes)
	if plan.Chunks() != len(ref) {
		t.Fatalf("%s count=%d chunk=%d: %d chunks, want %d", name, count, chunkBytes, plan.Chunks(), len(ref))
	}
	for c0 := range ref {
		if got, want := plan.SegmentCount(c0), len(ref[c0]); got != want {
			t.Fatalf("%s count=%d chunk=%d: chunk %d has %d segments, want %d",
				name, count, chunkBytes, c0, got, want)
		}
		want := 0
		for c1 := c0; c1 < len(ref) && c1 < c0+3; c1++ {
			want += len(ref[c1])
			n := min((c1+1)*chunkBytes, plan.Total()) - c0*chunkBytes
			if got := plan.RangeSegments(c0*chunkBytes, n); got != want {
				t.Fatalf("%s count=%d chunk=%d: range [%d,%d] has %d segments, want %d",
					name, count, chunkBytes, c0, c1, got, want)
			}
			if got := plan.Kernel(c0*chunkBytes, n).Segments(); got != want {
				t.Fatalf("%s count=%d chunk=%d: kernel [%d,%d] has %d segments, want %d",
					name, count, chunkBytes, c0, c1, got, want)
			}
		}
	}
}

// TestRunFormAllocationGate bounds what the Figure 5(b) vector costs to
// build, commit and plan: the million-row vector is one run and each of
// its 64 chunks one clipped run, so the whole sequence stays under 64 KiB
// however many rows the vector has.
func TestRunFormAllocationGate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := Vector(1<<20, 4, 64, Byte)
	if err != nil {
		t.Fatal(err)
	}
	v.MustCommit()
	plan := v.ChunkPlan(1, 64<<10)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("vector + commit + plan allocated %d bytes, want < %d", got, 64<<10)
	}
	if plan.Chunks() != 64 || plan.SegmentCount(0) != 16384 {
		t.Errorf("plan has %d chunks, chunk 0 has %d segments; want 64 and 16384",
			plan.Chunks(), plan.SegmentCount(0))
	}
}
