package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"mv2sim/internal/sim"
)

// fakeClock is a settable Clock for driving tracers by hand.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

func TestNilHubIsInert(t *testing.T) {
	var h *Hub
	if h.Enabled() {
		t.Fatal("nil hub reports enabled")
	}
	sp := h.Start(KindD2H, "rank0.d2h", 0, 65536)
	if sp.Active() {
		t.Fatal("span from nil hub is active")
	}
	sp.Step("x")
	sp.End()
	h.Instant(KindRTS, "rank0.mpi", -1, 0)
	h.Counter("ctr", 1)
}

func TestEmptyHubIsInert(t *testing.T) {
	h := NewHub(&fakeClock{})
	if h.Enabled() {
		t.Fatal("tracerless hub reports enabled")
	}
	if sp := h.Start(KindD2H, "rank0.d2h", 0, 65536); sp.Active() {
		t.Fatal("span from tracerless hub is active")
	}
}

// TestDisabledPathAllocatesNothing pins the zero-allocation guarantee the
// package doc makes: with tracing off, the instrumented hot paths (cuda
// copies, ib RDMA writes, mpi sends) pay no heap traffic for their spans.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var nilHub *Hub
	empty := NewHub(&fakeClock{})
	for _, tc := range []struct {
		name string
		hub  *Hub
	}{
		{"nil", nilHub},
		{"no-tracers", empty},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			sp := tc.hub.Start(KindRDMA, "hca0.tx", 3, 65536)
			sp.Step("posted")
			sp.End()
			tc.hub.Instant(KindFIN, "rank0.mpi", 3, 65536)
			tc.hub.Counter("node0.txvbufs.free", 63)
			child := tc.hub.StartChild(sp, KindD2H, "rank0.d2h", 3, 65536)
			child.End()
		})
		if allocs != 0 {
			t.Errorf("%s hub: %v allocs/op on the disabled path, want 0", tc.name, allocs)
		}
	}
}

func TestSpanLifecycle(t *testing.T) {
	clk := &fakeClock{}
	rec := NewStatsTracer()
	h := NewHub(clk, rec)
	clk.t = 100
	sp := h.Start(KindPack, "rank0.pack", 0, 4096)
	if !sp.Active() {
		t.Fatal("span inactive on enabled hub")
	}
	if got := sp.Task(); got.Kind != KindPack || got.Start != 100 || got.Chunk != 0 {
		t.Fatalf("task = %+v", got)
	}
	clk.t = 250
	sp.End()
	if rec.Count(KindPack) != 1 || rec.Total(KindPack) != 150 {
		t.Fatalf("stats: count=%d total=%v", rec.Count(KindPack), rec.Total(KindPack))
	}
}

func TestStartChildParents(t *testing.T) {
	clk := &fakeClock{}
	h := NewHub(clk, NewStatsTracer())
	parent := h.Start(KindSendRndv, "rank0.mpi", -1, 1<<20)
	child := h.StartChild(parent, KindPack, "rank0.pack", 0, 65536)
	if child.Task().ParentID != parent.Task().ID {
		t.Fatalf("child parent = %d, want %d", child.Task().ParentID, parent.Task().ID)
	}
	inert := Span{}
	top := h.StartChild(inert, KindPack, "rank0.pack", 1, 65536)
	if top.Task().ParentID != 0 {
		t.Fatalf("child of inert parent has ParentID %d", top.Task().ParentID)
	}
	child.End()
	top.End()
	parent.End()
}

func TestChromeTracerOutput(t *testing.T) {
	clk := &fakeClock{}
	c := NewChromeTracer()
	h := NewHub(clk, c)

	clk.t = 1000
	sp := h.Start(KindD2H, "gpu0.d2hEngine", 0, 65536)
	clk.t = 3500
	sp.End()
	h.Instant(KindFIN, "rank0.mpi", 0, 65536)
	h.Counter("node0.txvbufs.free", 63)

	// Counters plot by name, not by thread track: two tracks, not three.
	if got := c.Tracks(); len(got) != 2 {
		t.Fatalf("tracks = %v", got)
	}
	out := c.JSON()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	var complete, instant, counter, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Ts != 1.0 || ev.Dur != 2.5 {
				t.Errorf("complete event ts=%v dur=%v, want 1.0/2.5 us", ev.Ts, ev.Dur)
			}
		case "i":
			instant++
		case "C":
			counter++
		case "M":
			meta++
		}
	}
	if complete != 1 || instant != 1 || counter != 1 || meta != 2 {
		t.Fatalf("events: X=%d i=%d C=%d M=%d\n%s", complete, instant, counter, meta, out)
	}
}

func TestChromeTracerDeterministicBytes(t *testing.T) {
	emit := func() string {
		clk := &fakeClock{}
		c := NewChromeTracer()
		h := NewHub(clk, c)
		for i := 0; i < 5; i++ {
			clk.t = sim.Time(i * 1000)
			sp := h.Start(KindRDMA, "hca0.tx", i, 65536)
			clk.t += 700
			sp.End()
			h.Counter("hca0.bytesTx", float64((i+1)*65536))
		}
		return c.JSON()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatal("identical task streams produced different JSON bytes")
	}
}

// TestBusyTimeTwoChunkPipeline hand-computes utilization for a two-chunk
// pipeline where the D2H engine runs [0,40) and [50,90) and the HCA
// overlaps at [40,70) and [90,120).
func TestBusyTimeTwoChunkPipeline(t *testing.T) {
	clk := &fakeClock{}
	b := NewBusyTimeTracer()
	h := NewHub(clk, b)

	span := func(where string, from, to sim.Time) {
		clk.t = from
		sp := h.Start(KindD2H, where, 0, 0)
		clk.t = to
		sp.End()
	}
	span("gpu0.d2hEngine", 0, 40)
	span("hca0.tx", 40, 70)
	span("gpu0.d2hEngine", 50, 90)
	span("hca0.tx", 90, 120)

	if from, to := b.Window(); from != 0 || to != 120 {
		t.Fatalf("window = [%v, %v]", from, to)
	}
	if got := b.Busy("gpu0.d2hEngine"); got != 80 {
		t.Errorf("d2h busy = %v, want 80", got)
	}
	if got := b.Busy("hca0.tx"); got != 60 {
		t.Errorf("hca busy = %v, want 60", got)
	}
	if got := b.Utilization("gpu0.d2hEngine", 0, 120); got != 80.0/120 {
		t.Errorf("d2h utilization = %v", got)
	}
	// Clipping: only [30,60) — d2h contributes [30,40)+[50,60) = 20.
	if got := b.BusyBetween("gpu0.d2hEngine", 30, 60); got != 20 {
		t.Errorf("clipped busy = %v, want 20", got)
	}
	if got := b.Busy("no-such-track"); got != 0 {
		t.Errorf("unknown track busy = %v", got)
	}
}

func TestBusyTimeMergesOverlaps(t *testing.T) {
	clk := &fakeClock{}
	b := NewBusyTimeTracer()
	h := NewHub(clk, b)
	// Two overlapping tasks on one track: [0,10) and [5,15) → busy 15.
	clk.t = 0
	s1 := h.Start(KindKernel, "gpu0.kernelEngine", -1, 0)
	clk.t = 5
	s2 := h.Start(KindKernel, "gpu0.kernelEngine", -1, 0)
	clk.t = 10
	s1.End()
	clk.t = 15
	s2.End()
	if got := b.Busy("gpu0.kernelEngine"); got != 15 {
		t.Fatalf("busy = %v, want 15", got)
	}
}

func TestStatsTracer(t *testing.T) {
	clk := &fakeClock{}
	s := NewStatsTracer()
	h := NewHub(clk, s)
	durations := []sim.Time{300, 100, 200}
	for i, d := range durations {
		clk.t = sim.Time(i * 1000)
		sp := h.Start(KindPack, "rank0.pack", i, 4096)
		clk.t += d
		sp.End()
	}
	if got := s.Count(KindPack); got != 3 {
		t.Errorf("count = %d", got)
	}
	if got := s.Total(KindPack); got != 600 {
		t.Errorf("total = %v", got)
	}
	if got := s.Avg(KindPack); got != 200 {
		t.Errorf("avg = %v", got)
	}
	if got := s.Median(KindPack); got != 200 {
		t.Errorf("median = %v", got)
	}
	if got := s.Bytes(KindPack); got != 3*4096 {
		t.Errorf("bytes = %d", got)
	}
	bd := s.Breakdown()
	if bd.Get(KindPack) != 600 || bd.Total() != 600 {
		t.Errorf("breakdown = %v", bd)
	}
	tbl := s.Table("per-kind")
	if tbl == nil || !strings.Contains(tbl.String(), KindPack) {
		t.Error("table missing kind row")
	}
}
