package gpu

import (
	"math/rand"

	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

func newTestDevice(e *sim.Engine) *Device {
	return New(e, 0, Config{MemBytes: 1 << 20})
}

func TestDirOf(t *testing.T) {
	e := sim.New()
	d := newTestDevice(e)
	h := mem.NewHostSpace("h", 64)
	dp := d.MustMalloc(64)
	cases := []struct {
		dst, src mem.Ptr
		want     CopyDir
	}{
		{dp, h.Base(), H2D},
		{h.Base(), dp, D2H},
		{dp, dp, D2D},
		{h.Base(), h.Base(), H2H},
	}
	for _, c := range cases {
		if got := DirOf(c.dst, c.src); got != c.want {
			t.Errorf("DirOf(%v,%v) = %v, want %v", c.dst, c.src, got, c.want)
		}
	}
}

func TestCopyDirString(t *testing.T) {
	for _, d := range []CopyDir{H2D, D2H, D2D, H2H} {
		if strings.Contains(d.String(), "?") {
			t.Errorf("missing name for %d", d)
		}
	}
}

func TestShape(t *testing.T) {
	s := Shape1D(4096)
	if !s.Contiguous() || s.Bytes() != 4096 {
		t.Error("Shape1D not contiguous")
	}
	strided := CopyShape{Width: 4, Height: 8, DPitch: 4, SPitch: 64}
	if !strided.SrcStrided() || strided.DstStrided() || strided.Contiguous() {
		t.Error("stride detection wrong")
	}
	if strided.Bytes() != 32 {
		t.Errorf("Bytes = %d", strided.Bytes())
	}
	// width == pitch with many rows is contiguous.
	flat := CopyShape{Width: 16, Height: 4, DPitch: 16, SPitch: 16}
	if !flat.Contiguous() {
		t.Error("pitch==width should be contiguous")
	}
}

// Calibration anchors from the paper (section I-A, Tesla C2050):
// a 4 KB vector of 4-byte elements (1024 rows).
func TestPaperCalibration4KB(t *testing.T) {
	m := DefaultModel()
	vec := func(dir CopyDir, dstContig bool) sim.Time {
		dp := 4
		if !dstContig {
			dp = 64
		}
		return m.CopyCost(dir, CopyShape{Width: 4, Height: 1024, DPitch: dp, SPitch: 64})
	}
	nc2nc := vec(D2H, false)
	nc2c := vec(D2H, true)
	// D2D pack + contiguous D2H, the paper's option (c).
	nc2c2c := m.CopyCost(D2D, CopyShape{Width: 4, Height: 1024, DPitch: 4, SPitch: 64}) +
		m.CopyCost(D2H, Shape1D(4096))

	check := func(name string, got sim.Time, lo, hi float64) {
		us := got.Micros()
		if us < lo || us > hi {
			t.Errorf("%s = %.1fus, want in [%v,%v] (paper anchor)", name, us, lo, hi)
		}
	}
	check("D2H nc2nc 4KB", nc2nc, 150, 250)   // paper: ~200us
	check("D2H nc2c 4KB", nc2c, 230, 330)     // paper: ~281us
	check("D2D2H nc2c2c 4KB", nc2c2c, 15, 50) // paper: ~35us
	if !(nc2c2c < nc2nc && nc2nc < nc2c) {
		t.Errorf("ordering broken: nc2c2c=%v nc2nc=%v nc2c=%v", nc2c2c, nc2nc, nc2c)
	}
}

// At 4 MB the paper reports the offloaded scheme at ~4.8% of D2H nc2nc.
func TestPaperCalibration4MB(t *testing.T) {
	m := DefaultModel()
	const rows = 1 << 20 // 4 MB of 4-byte elements
	nc2nc := m.CopyCost(D2H, CopyShape{Width: 4, Height: rows, DPitch: 64, SPitch: 64})
	nc2c2c := m.CopyCost(D2D, CopyShape{Width: 4, Height: rows, DPitch: 4, SPitch: 64}) +
		m.CopyCost(D2H, Shape1D(4<<20))
	ratio := float64(nc2c2c) / float64(nc2nc)
	if ratio < 0.02 || ratio > 0.12 {
		t.Errorf("nc2c2c/nc2nc at 4MB = %.3f, want ~0.048 (paper)", ratio)
	}
}

// Small messages: for very few rows the direct D2H beats the two-hop pack,
// matching Figure 2(a)'s crossover below ~64-256 B.
func TestPackCrossover(t *testing.T) {
	m := DefaultModel()
	cost := func(rows int) (direct, offload sim.Time) {
		direct = m.CopyCost(D2H, CopyShape{Width: 4, Height: rows, DPitch: 64, SPitch: 64})
		offload = m.CopyCost(D2D, CopyShape{Width: 4, Height: rows, DPitch: 4, SPitch: 64}) +
			m.CopyCost(D2H, Shape1D(rows*4))
		return
	}
	d16, o16 := cost(4) // 16 B message
	if d16 > o16 {
		t.Errorf("at 16B direct=%v should beat offload=%v", d16, o16)
	}
	d1k, o1k := cost(256) // 1 KB message
	if o1k > d1k {
		t.Errorf("at 1KB offload=%v should beat direct=%v", o1k, d1k)
	}
}

func TestKernelCost(t *testing.T) {
	m := DefaultModel()
	got := m.KernelCost(1000, 2.0)
	want := m.KernelLaunch + 2000*sim.Nanosecond
	if got != want {
		t.Errorf("KernelCost = %v, want %v", got, want)
	}
}

func TestMallocFree(t *testing.T) {
	e := sim.New()
	d := newTestDevice(e)
	a, err := d.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offset()%Alignment != 0 || b.Offset()%Alignment != 0 {
		t.Error("allocations not aligned")
	}
	if a.Offset() == b.Offset() {
		t.Error("overlapping allocations")
	}
	if d.LiveAllocs() != 2 {
		t.Errorf("LiveAllocs = %d", d.LiveAllocs())
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(b); err != nil {
		t.Fatal(err)
	}
	if d.LiveAllocs() != 0 || d.MemInUse() != 0 {
		t.Error("leak after frees")
	}
	if err := d.CheckAllocator(); err != nil {
		t.Error(err)
	}
}

func TestMallocErrors(t *testing.T) {
	e := sim.New()
	d := New(e, 0, Config{MemBytes: 4096})
	if _, err := d.Malloc(0); err == nil {
		t.Error("Malloc(0) succeeded")
	}
	if _, err := d.Malloc(-5); err == nil {
		t.Error("Malloc(-5) succeeded")
	}
	if _, err := d.Malloc(1 << 30); err == nil {
		t.Error("oversized Malloc succeeded")
	}
	p := d.MustMalloc(64)
	if err := d.Free(p.Add(8)); err == nil {
		t.Error("free of interior pointer succeeded")
	}
	h := mem.NewHostSpace("h", 8)
	if err := d.Free(h.Base()); err == nil {
		t.Error("free of host pointer succeeded")
	}
}

func TestOutOfMemoryThenReuse(t *testing.T) {
	e := sim.New()
	d := New(e, 0, Config{MemBytes: 2048})
	a := d.MustMalloc(1024)
	b := d.MustMalloc(1024)
	if _, err := d.Malloc(1); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	c, err := d.Malloc(512)
	if err != nil {
		t.Fatalf("reuse after free failed: %v", err)
	}
	_ = b
	_ = c
	if err := d.CheckAllocator(); err != nil {
		t.Error(err)
	}
}

func TestFreeCoalescing(t *testing.T) {
	e := sim.New()
	d := New(e, 0, Config{MemBytes: 4096})
	var ps []mem.Ptr
	for i := 0; i < 4; i++ {
		ps = append(ps, d.MustMalloc(1024))
	}
	// Free out of order; arena must coalesce back to a single span.
	for _, i := range []int{2, 0, 3, 1} {
		if err := d.Free(ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckAllocator(); err != nil {
		t.Fatal(err)
	}
	if d.LiveAllocs() != 0 || d.MemInUse() != 0 {
		t.Errorf("%d allocations, %d bytes live after freeing all", d.LiveAllocs(), d.MemInUse())
	}
	// The whole arena must be allocatable again, from its start.
	if p, err := d.Malloc(4096); err != nil || p.Offset() != 0 {
		t.Errorf("full-arena alloc after coalescing: %v, %v", p, err)
	}
}

func TestDoubleFree(t *testing.T) {
	e := sim.New()
	d := New(e, 0, Config{MemBytes: 4096})
	p := d.MustMalloc(64)
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err == nil {
		t.Error("double free succeeded")
	}
}

// Property: arbitrary Malloc/Free sequences keep device memory
// consistent: no live allocation overlaps another, the accounting matches
// the live allocations, and once everything is freed the whole arena is
// one allocation again.
func TestPropAllocatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(sim.New(), 0, Config{MemBytes: 1 << 16})
		var live []mem.Ptr
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				p, err := d.Malloc(1 + rng.Intn(4096))
				if err == nil {
					live = append(live, p)
				}
			} else {
				i := rng.Intn(len(live))
				if err := d.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := d.CheckAllocator(); err != nil || d.LiveAllocs() != len(live) {
				t.Logf("seed %d step %d: %v, %d live allocations, want %d", seed, step, err, d.LiveAllocs(), len(live))
				return false
			}
		}
		for _, p := range live {
			if err := d.Free(p); err != nil {
				return false
			}
		}
		if d.CheckAllocator() != nil || d.MemInUse() != 0 {
			return false
		}
		p, err := d.Malloc(1 << 16)
		return err == nil && p.Offset() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// newEngine returns a fresh engine, shut down when the test ends.
func newEngine(t *testing.T) *sim.Engine {
	e := sim.New()
	t.Cleanup(e.Shutdown)
	return e
}

// copyJob is a job copying width x height bytes from src to dst that
// records its completion time in *at.
func copyJob(e *sim.Engine, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int, at *sim.Time) *Job {
	return &Job{Dst: dst, Src: src, Shape: CopyShape{Width: width, Height: height, DPitch: dpitch, SPitch: spitch},
		Chunk: -1, Done: func() { *at = e.Now() }}
}

func TestExecCopyMovesBytesAtCompletion(t *testing.T) {
	e := newEngine(t)
	d := newTestDevice(e)
	h := mem.NewHostSpace("h", 4096)
	dp := d.MustMalloc(4096)
	mem.Fill(h.Base(), 4096, func(i int) byte { return byte(i ^ 0x5a) })
	var doneAt sim.Time
	d.Exec(copyJob(e, dp, 4096, h.Base(), 4096, 4096, 1, &doneAt))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := d.Model().CopyCost(H2D, Shape1D(4096))
	if doneAt != want {
		t.Errorf("copy completed at %v, want %v", doneAt, want)
	}
	if !mem.Equal(dp, h.Base(), 4096) {
		t.Error("bytes not moved")
	}
	st := d.Stats()
	if st.Copies[H2D] != 1 || st.Bytes[H2D] != 4096 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Copies) != 1 || len(st.Bytes) != 1 {
		t.Errorf("stats list unused directions: %+v", st)
	}
}

func TestEngineSerialization(t *testing.T) {
	// Two D2H copies serialize on the D2H engine; an H2D copy overlaps.
	e := newEngine(t)
	d := newTestDevice(e)
	h := mem.NewHostSpace("h", 1<<16)
	dp := d.MustMalloc(1 << 16)
	const n = 1 << 14
	cost := d.Model().CopyCost(D2H, Shape1D(n))
	var d2hA, d2hDone, h2dDone sim.Time
	d.Exec(copyJob(e, h.Base(), n, dp, n, n, 1, &d2hA))
	d.Exec(copyJob(e, h.Base().Add(n), n, dp.Add(n), n, n, 1, &d2hDone))
	d.Exec(copyJob(e, dp.Add(2*n), n, h.Base().Add(2*n), n, n, 1, &h2dDone))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d2hA != cost || d2hDone != 2*cost {
		t.Errorf("D2H copies done at %v and %v, want %v and %v (serialized)", d2hA, d2hDone, cost, 2*cost)
	}
	h2dCost := d.Model().CopyCost(H2D, Shape1D(n))
	if h2dDone != h2dCost {
		t.Errorf("H2D done at %v, want %v (overlapped)", h2dDone, h2dCost)
	}
}

func TestExecKernel(t *testing.T) {
	e := newEngine(t)
	d := newTestDevice(e)
	ran := false
	var at sim.Time
	d.Exec(&Job{Kernel: true, Cells: 1000, NsPerCell: 1.0, Body: func() { ran = true }, Chunk: -1,
		Done: func() { at = e.Now() }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("kernel body did not run")
	}
	if want := d.Model().KernelCost(1000, 1.0); at != want {
		t.Errorf("kernel done at %v, want %v", at, want)
	}
	if st := d.Stats(); st.Kernels != 1 || st.KernelTime == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCrossDeviceCopyPanics(t *testing.T) {
	e := sim.New()
	d0 := New(e, 0, Config{MemBytes: 4096})
	d1 := New(e, 1, Config{MemBytes: 4096})
	p0 := d0.MustMalloc(64)
	p1 := d1.MustMalloc(64)
	defer func() {
		if recover() == nil {
			t.Error("cross-device copy did not panic")
		}
	}()
	var at sim.Time
	d0.Exec(copyJob(e, p0, 64, p1, 64, 64, 1, &at))
}

func TestEngineKindString(t *testing.T) {
	for k := EngineKind(0); k < numEngines; k++ {
		if strings.Contains(k.String(), "?") {
			t.Errorf("missing name for engine %d", k)
		}
	}
	if EngineFor(D2H) != EngineD2H || EngineFor(H2D) != EngineH2D || EngineFor(D2D) != EngineD2D {
		t.Error("EngineFor mapping wrong")
	}
}

// Property: CopyCost is monotone in payload size for every direction and
// fixed stridedness.
func TestPropCopyCostMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(rowsRaw uint16, dirRaw uint8) bool {
		rows := 1 + int(rowsRaw%4096)
		dir := CopyDir(dirRaw % 3) // H2D, D2H, D2D
		small := m.CopyCost(dir, CopyShape{Width: 4, Height: rows, DPitch: 64, SPitch: 64})
		big := m.CopyCost(dir, CopyShape{Width: 4, Height: rows * 2, DPitch: 64, SPitch: 64})
		return big > small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackKernelNsPerCellFloor(t *testing.T) {
	m := DefaultModel()
	if got := m.PackKernelNsPerCell(); got != m.PackKernelNsPerByte {
		t.Errorf("default PackKernelNsPerCell = %v, want calibrated %v", got, m.PackKernelNsPerByte)
	}
	// A calibration below the copy-engine bandwidth would make the kernel
	// beat physics; the rate must floor at 1 byte per DevBandwidth tick.
	m.PackKernelNsPerByte = 0
	if got, floor := m.PackKernelNsPerCell(), 1e9/m.DevBandwidth; got != floor {
		t.Errorf("zero calibration: PackKernelNsPerCell = %v, want bandwidth floor %v", got, floor)
	}
	if got, want := m.PackKernelCost(1<<20, 0), m.KernelCost(1<<20, 1e9/m.DevBandwidth); got != want {
		t.Errorf("PackKernelCost(1MB) = %v, want %v", got, want)
	}
}

func TestPackKernelRateSegmentCharge(t *testing.T) {
	m := DefaultModel()
	// The calibration split is exact: 4-byte segments must land on the
	// historical flat 0.025 ns/B rate bit for bit, so every trace and
	// benchmark produced before the segment term existed is reproduced.
	for _, bytes := range []int{4, 4 << 10, 1 << 20} {
		if got := m.PackKernelRate(bytes, bytes/4); got != 0.025 {
			t.Errorf("PackKernelRate(%d, %d) = %v, want exactly 0.025", bytes, bytes/4, got)
		}
	}
	// Wider blocks amortize the segment charge: the rate must decrease
	// monotonically toward the streaming rate as blocks widen.
	const total = 1 << 20
	prev := m.PackKernelRate(total, total/4)
	for _, w := range []int{16, 64, 1024, 64 << 10} {
		r := m.PackKernelRate(total, total/w)
		if r >= prev {
			t.Errorf("PackKernelRate not decreasing at width %d: %v >= %v", w, r, prev)
		}
		if r < m.PackKernelNsPerByte {
			t.Errorf("PackKernelRate(%d-wide) = %v below streaming rate %v", w, r, m.PackKernelNsPerByte)
		}
		prev = r
	}
	// Unknown geometry (segments <= 0) degrades to the flat streaming rate.
	if got := m.PackKernelRate(total, 0); got != m.PackKernelNsPerByte {
		t.Errorf("PackKernelRate(segments=0) = %v, want %v", got, m.PackKernelNsPerByte)
	}
	// Tiny blocks pay heavily — a 1-byte-segment pack is dominated by the
	// per-segment charge, matching TEMPI's order-of-magnitude collapse.
	if got, want := m.PackKernelRate(total, total), m.PackKernelNsPerByte+m.PackKernelNsPerSegment; got != want {
		t.Errorf("PackKernelRate(1B segments) = %v, want %v", got, want)
	}
	// The floor still binds: zero out the calibration and the rate must not
	// drop below the copy engine's byte rate.
	m.PackKernelNsPerByte, m.PackKernelNsPerSegment = 0, 0
	if got, floor := m.PackKernelRate(total, 1), 1e9/m.DevBandwidth; got != floor {
		t.Errorf("zeroed PackKernelRate = %v, want floor %v", got, floor)
	}
}

func TestKernelPackCrossover(t *testing.T) {
	// The pack kernel pays a bigger launch cost and a higher per-byte rate
	// but no per-row charge, so it wins exactly where rows are many and
	// short. With the default calibration the 4-byte-row break-even is
	// 101 rows: launch gap 1000ns / (DevRow + 4B rate gap) per row.
	m := DefaultModel()
	if m.KernelPackBeatsCopy(100, 4, 16) {
		t.Error("kernel should lose to memcpy2D at 100 rows x 4B")
	}
	if !m.KernelPackBeatsCopy(101, 4, 16) {
		t.Error("kernel should beat memcpy2D at 101 rows x 4B")
	}
	// Wide rows amortize DevRow to nothing; the kernel's per-byte premium
	// then dominates at every height.
	for _, rows := range []int{1, 64, 1 << 10, 1 << 20} {
		if m.KernelPackBeatsCopy(rows, 4096, 8192) {
			t.Errorf("kernel should never beat memcpy2D at 4KB rows (rows=%d)", rows)
		}
	}
}

// TestFreedBufferUnreadable: Malloc maps exactly what it hands out, so a
// read into the alignment padding past the buffer, or of the buffer after
// Free, panics naming the device space and offset.
func TestFreedBufferUnreadable(t *testing.T) {
	d := newTestDevice(sim.New())
	p := d.MustMalloc(100)
	p.Bytes(100)[99] = 1
	wantPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, "gpu0+0x") {
				t.Errorf("%s: panic %q does not name the space and offset", what, msg)
			}
		}()
		f()
	}
	wantPanic("read into the padding", func() { p.Bytes(101) })
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	wantPanic("read after free", func() { p.Bytes(1) })
	wantPanic("interior read after free", func() { p.Add(64).Bytes(8) })
}
