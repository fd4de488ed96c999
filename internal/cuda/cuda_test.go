package cuda

import (
	"testing"
	"testing/quick"

	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

type fixture struct {
	e    *sim.Engine
	dev  *gpu.Device
	ctx  *Ctx
	host *mem.Space
}

// newFixture builds a one-GPU context on a fresh engine.
func newFixture() *fixture {
	e := sim.New()
	dev := gpu.New(e, 0, gpu.Config{MemBytes: 8 << 20})
	return &fixture{e: e, dev: dev, ctx: NewCtx(e, dev), host: mem.NewHostSpace("host", 8<<20)}
}

func TestBlockingMemcpyRoundTrip(t *testing.T) {
	f := newFixture()
	d := f.ctx.MustMalloc(4096)
	back := f.host.Base().Add(4096)
	mem.Fill(f.host.Base(), 4096, func(i int) byte { return byte(3 * i) })
	var elapsed sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		f.ctx.Memcpy(p, d, f.host.Base(), 4096)
		f.ctx.Memcpy(p, back, d, 4096)
		elapsed = p.Now()
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.Equal(back, f.host.Base(), 4096) {
		t.Error("round trip corrupted data")
	}
	m := f.ctx.Model()
	want := m.CopyCost(gpu.H2D, gpu.Shape1D(4096)) + m.CopyCost(gpu.D2H, gpu.Shape1D(4096)) +
		2*(m.AsyncIssue+m.SyncOverhead)
	if elapsed != want {
		t.Errorf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestMemcpy2DPacksColumn(t *testing.T) {
	f := newFixture()
	const pitch, width, height = 64, 4, 16
	src := f.ctx.MustMalloc(pitch * height)
	dst := f.host.Base()
	f.e.Spawn("fill+copy", func(p *sim.Proc) {
		mem.Fill(src, pitch*height, func(i int) byte { return byte(i) })
		f.ctx.Memcpy2D(p, dst, width, src, pitch, width, height)
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < height; r++ {
		for x := 0; x < width; x++ {
			if got, want := dst.Bytes(width * height)[r*width+x], byte(r*pitch+x); got != want {
				t.Fatalf("row %d byte %d: got %d want %d", r, x, got, want)
			}
		}
	}
}

func TestStreamFIFO(t *testing.T) {
	// Two copies on one stream execute in order even though the second is
	// smaller/faster.
	f := newFixture()
	s := f.ctx.NewStream()
	d := f.ctx.MustMalloc(1 << 16)
	var ev1, ev2 *sim.Event
	f.e.Spawn("app", func(p *sim.Proc) {
		ev1 = f.ctx.MemcpyAsync(p, d, f.host.Base(), 1<<16, s)
		ev2 = f.ctx.MemcpyAsync(p, d.Add(0), f.host.Base(), 16, s)
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ev1.Fired() || !ev2.Fired() {
		t.Fatal("ops did not complete")
	}
	if ev2.FiredAt() <= ev1.FiredAt() {
		t.Errorf("stream order violated: op2@%v <= op1@%v", ev2.FiredAt(), ev1.FiredAt())
	}
}

func TestStreamsOverlapAcrossEngines(t *testing.T) {
	// A D2H copy on stream A and an H2D copy on stream B run concurrently:
	// total time ≈ max, not sum.
	f := newFixture()
	sa, sb := f.ctx.NewStream(), f.ctx.NewStream()
	d := f.ctx.MustMalloc(2 << 20)
	const n = 1 << 20
	var end sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		e1 := f.ctx.MemcpyAsync(p, f.host.Base(), d, n, sa)               // D2H
		e2 := f.ctx.MemcpyAsync(p, d.Add(n), f.host.Base().Add(n), n, sb) // H2D
		p.WaitAll(e1, e2)
		end = p.Now()
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	m := f.ctx.Model()
	one := m.CopyCost(gpu.D2H, gpu.Shape1D(n))
	if end > one+one/2 {
		t.Errorf("no overlap: end=%v, single copy=%v", end, one)
	}
}

func TestSameEngineStreamsSerialize(t *testing.T) {
	// Two D2H copies on different streams still share the single D2H engine.
	f := newFixture()
	sa, sb := f.ctx.NewStream(), f.ctx.NewStream()
	d := f.ctx.MustMalloc(2 << 20)
	const n = 1 << 20
	var end sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		e1 := f.ctx.MemcpyAsync(p, f.host.Base(), d, n, sa)
		e2 := f.ctx.MemcpyAsync(p, f.host.Base().Add(n), d.Add(n), n, sb)
		p.WaitAll(e1, e2)
		end = p.Now()
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	one := f.ctx.Model().CopyCost(gpu.D2H, gpu.Shape1D(n))
	if end < 2*one {
		t.Errorf("copies overlapped on one engine: end=%v, 2x copy=%v", end, 2*one)
	}
}

func TestStreamQueryAndSynchronize(t *testing.T) {
	f := newFixture()
	s := f.ctx.NewStream()
	d := f.ctx.MustMalloc(1 << 20)
	f.e.Spawn("app", func(p *sim.Proc) {
		if !s.Query() {
			t.Error("fresh stream not idle")
		}
		f.ctx.MemcpyAsync(p, d, f.host.Base(), 1<<20, s)
		if s.Query() {
			t.Error("stream idle immediately after async submit")
		}
		s.Synchronize(p)
		if !s.Query() {
			t.Error("stream busy after Synchronize")
		}
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronizeIdleStreamCostsOnlyOverhead(t *testing.T) {
	f := newFixture()
	s := f.ctx.NewStream()
	var elapsed sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		s.Synchronize(p)
		elapsed = p.Now()
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != f.ctx.Model().SyncOverhead {
		t.Errorf("elapsed = %v, want %v", elapsed, f.ctx.Model().SyncOverhead)
	}
}

func TestEventRecordQuerySynchronize(t *testing.T) {
	f := newFixture()
	s := f.ctx.NewStream()
	d := f.ctx.MustMalloc(1 << 20)
	ev := f.ctx.NewEvent()
	if ev.Query() {
		t.Error("unrecorded event reports complete")
	}
	f.e.Spawn("app", func(p *sim.Proc) {
		copyDone := f.ctx.MemcpyAsync(p, d, f.host.Base(), 1<<20, s)
		ev.Record(p, s)
		if ev.Query() {
			t.Error("event complete before stream drained")
		}
		ev.Synchronize(p)
		if !copyDone.Fired() {
			t.Error("event fired before prior stream work")
		}
		if ev.CompletedAt() < copyDone.FiredAt() {
			t.Error("event completed before prior op")
		}
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronizeUnrecordedEventPanics(t *testing.T) {
	f := newFixture()
	ev := f.ctx.NewEvent()
	f.e.Spawn("app", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Synchronize on unrecorded event did not panic")
			}
		}()
		ev.Synchronize(p)
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelLaunchOrderingWithCopies(t *testing.T) {
	// Kernel launched after a H2D copy in the same stream sees the copied
	// data; a marker event after the kernel sees its effect.
	f := newFixture()
	s := f.ctx.NewStream()
	d := f.ctx.MustMalloc(16)
	sawInput := false
	f.e.Spawn("app", func(p *sim.Proc) {
		mem.Fill(f.host.Base(), 16, func(i int) byte { return 0xAB })
		f.ctx.MemcpyAsync(p, d, f.host.Base(), 16, s)
		kd := f.ctx.LaunchKernel(p, s, 16, 1.0, func() {
			sawInput = d.Bytes(16)[7] == 0xAB
			d.Bytes(16)[0] = 0xCD
		})
		p.Wait(kd)
		if d.Bytes(16)[0] != 0xCD {
			t.Error("kernel effect not visible after completion")
		}
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawInput {
		t.Error("kernel ran before its input copy completed")
	}
}

// The paper's §IV-A observation as an executable property: for messages
// beyond the small-message regime, device-side packing plus a contiguous
// D2H ("D2D2H nc2c2c") completes earlier than the direct strided D2H, and
// the advantage grows with message size.
func TestOffloadedPackingBeatsDirectStridedCopy(t *testing.T) {
	f := newFixture()
	const pitch = 64
	for _, rows := range []int{256, 4096, 65536} {
		rows := rows
		fx := newFixture()
		src := fx.ctx.MustMalloc(pitch * rows)
		tbuf := fx.ctx.MustMalloc(4 * rows)
		hostA := fx.host.Base()
		hostB := fx.host.Base().Add(4 * rows)
		var direct, offload sim.Time
		fx.e.Spawn("direct", func(p *sim.Proc) {
			t0 := p.Now()
			fx.ctx.Memcpy2D(p, hostA, pitch, src, pitch, 4, rows)
			direct = p.Now() - t0
		})
		fx.e.SpawnAt(sim.Second, "offload", func(p *sim.Proc) {
			t0 := p.Now()
			fx.ctx.Memcpy2D(p, tbuf, 4, src, pitch, 4, rows)
			fx.ctx.Memcpy(p, hostB, tbuf, 4*rows)
			offload = p.Now() - t0
		})
		if err := fx.e.Run(); err != nil {
			t.Fatal(err)
		}
		if offload >= direct {
			t.Errorf("rows=%d: offload %v not faster than direct %v", rows, offload, direct)
		}
	}
	_ = f
}

// Property: async 2D copies through any stream preserve data for arbitrary
// geometry (the byte-movement layer never depends on timing).
func TestPropAsync2DCopyIntegrity(t *testing.T) {
	f := func(widthRaw, heightRaw, padRaw uint8) bool {
		width := 1 + int(widthRaw%32)
		height := 1 + int(heightRaw%32)
		pitch := width + int(padRaw%16)
		fx := newFixture()
		src := fx.ctx.MustMalloc(pitch * height)
		dst := fx.host.Base()
		ok := false
		fx.e.Spawn("app", func(p *sim.Proc) {
			mem.Fill(src, pitch*height, func(i int) byte { return byte(i * 7) })
			s := fx.ctx.NewStream()
			ev := fx.ctx.Memcpy2DAsync(p, dst, width, src, pitch, width, height, s)
			p.Wait(ev)
			ok = true
			for r := 0; r < height && ok; r++ {
				for x := 0; x < width; x++ {
					if dst.Bytes(width * height)[r*width+x] != byte((r*pitch+x)*7) {
						ok = false
						break
					}
				}
			}
		})
		if err := fx.e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMemset(t *testing.T) {
	f := newFixture()
	d := f.ctx.MustMalloc(4096)
	var devTime, hostTime sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		t0 := p.Now()
		f.ctx.Memset(p, d, 0x7F, 4096)
		devTime = p.Now() - t0
		b := d.Bytes(4096)
		for i := range b {
			if b[i] != 0x7F {
				t.Fatalf("byte %d = %d after Memset", i, b[i])
			}
		}
		t0 = p.Now()
		f.ctx.Memset(p, f.host.Base(), 0x01, 4096)
		hostTime = p.Now() - t0
		if f.host.Base().Bytes(1)[0] != 0x01 {
			t.Error("host memset did not fill")
		}
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if devTime <= 0 || hostTime <= devTime {
		t.Errorf("memset costs: dev=%v host=%v (host fill should be slower per byte)", devTime, hostTime)
	}
}

func TestMemsetAsyncOrderedWithCopies(t *testing.T) {
	f := newFixture()
	s := f.ctx.NewStream()
	d := f.ctx.MustMalloc(64)
	f.e.Spawn("app", func(p *sim.Proc) {
		f.ctx.MemsetAsync(p, d, 0xAA, 64, s)
		ev := f.ctx.MemcpyAsync(p, f.host.Base(), d, 64, s)
		p.Wait(ev)
		if f.host.Base().Bytes(64)[63] != 0xAA {
			t.Error("copy ran before the preceding memset in stream order")
		}
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamWaitEvent(t *testing.T) {
	// A kernel on stream B must not run until the copy on stream A (gated
	// through an event) has completed — even though B has no other work.
	f := newFixture()
	sa, sb := f.ctx.NewStream(), f.ctx.NewStream()
	d := f.ctx.MustMalloc(1 << 20)
	sawCopy := false
	f.e.Spawn("app", func(p *sim.Proc) {
		mem.Fill(f.host.Base(), 1<<20, func(i int) byte { return 0x42 })
		f.ctx.MemcpyAsync(p, d, f.host.Base(), 1<<20, sa)
		ev := f.ctx.NewEvent()
		ev.Record(p, sa)
		f.ctx.StreamWaitEvent(p, sb, ev)
		kd := f.ctx.LaunchKernel(p, sb, 1, 1.0, func() {
			sawCopy = d.Bytes(1 << 20)[1<<20-1] == 0x42
		})
		p.Wait(kd)
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawCopy {
		t.Error("stream B ran ahead of the event it was told to wait for")
	}
}

func TestStreamWaitUnrecordedEventPanics(t *testing.T) {
	f := newFixture()
	s := f.ctx.NewStream()
	ev := f.ctx.NewEvent()
	f.e.Spawn("app", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("StreamWaitEvent on unrecorded event did not panic")
			}
		}()
		f.ctx.StreamWaitEvent(p, s, ev)
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// taskCollector records every completed obs task in simulation order.
type taskCollector struct{ tasks []obs.Task }

func (c *taskCollector) TaskStart(obs.Task)                      {}
func (c *taskCollector) TaskStep(obs.Task, string)               {}
func (c *taskCollector) TaskEnd(t obs.Task)                      { c.tasks = append(c.tasks, t) }
func (c *taskCollector) CounterSample(string, sim.Time, float64) {}

func TestLaunchKernelTaskTracing(t *testing.T) {
	// A kernel launched through LaunchKernelTask must be traced as a child
	// of the supplied pipeline span, carrying that chunk's index; a plain
	// LaunchKernel stays a top-level, unchunked task. Stream FIFO order is
	// unchanged either way.
	f := newFixture()
	col := &taskCollector{}
	hub := obs.NewHub(f.e, col)
	f.ctx.SetHub(hub)
	var parentID uint64
	order := ""
	f.e.Spawn("app", func(p *sim.Proc) {
		s := f.ctx.NewStream()
		parent := hub.StartTask(obs.KindPack, obs.KindPack, "rank0.pack", 7, 128)
		parentID = parent.Task().ID
		first := f.ctx.LaunchKernelTask(p, s, parent, 7, 128, 2.0, func() { order += "a" })
		second := f.ctx.LaunchKernel(p, s, 64, 1.0, func() { order += "b" })
		p.Wait(first)
		p.Wait(second)
		parent.End()
	})
	if err := f.e.Run(); err != nil {
		t.Fatal(err)
	}
	if order != "ab" {
		t.Fatalf("kernel bodies ran in order %q, want FIFO \"ab\"", order)
	}
	var kernels []obs.Task
	for _, tk := range col.tasks {
		if tk.Kind == obs.KindKernel {
			kernels = append(kernels, tk)
		}
	}
	if len(kernels) != 2 {
		t.Fatalf("traced %d kernel tasks, want 2", len(kernels))
	}
	child, top := kernels[0], kernels[1]
	if child.ParentID != parentID || child.Chunk != 7 || child.Bytes != 128 {
		t.Errorf("task kernel = {parent %d, chunk %d, bytes %d}, want {%d, 7, 128}",
			child.ParentID, child.Chunk, child.Bytes, parentID)
	}
	m := f.ctx.Model()
	if got, want := child.End-child.Start, m.KernelCost(128, 2.0); got != want {
		t.Errorf("child kernel task span = %v, want modeled cost %v", got, want)
	}
	if top.ParentID != 0 || top.Chunk != -1 || top.Bytes != 64 {
		t.Errorf("plain kernel = {parent %d, chunk %d, bytes %d}, want top-level {0, -1, 64}",
			top.ParentID, top.Chunk, top.Bytes)
	}
}

// TestMemcpyNoBytesTimesTheCopy: a no-bytes copy completes when the copy
// would, over the same number of engine items, and leaves its
// destination as it was.
func TestMemcpyNoBytesTimesTheCopy(t *testing.T) {
	run := func(noBytes bool) (at sim.Time, events uint64, dst []byte) {
		f := newFixture()
		d := f.ctx.MustMalloc(4096)
		mem.Fill(f.host.Base(), 4096, func(i int) byte { return byte(i | 1) })
		done := new(sim.Event)
		s := f.ctx.NewStream()
		if noBytes {
			f.ctx.MemcpyAsyncNoBytesInto(done, d, f.host.Base(), 4096, s, obs.Span{}, 0)
		} else {
			f.ctx.MemcpyAsyncInto(done, d, f.host.Base(), 4096, s, obs.Span{}, 0)
		}
		if err := f.e.Run(); err != nil {
			t.Fatal(err)
		}
		return done.FiredAt(), f.e.Events(), d.Bytes(4096)
	}
	wantAt, wantEvents, copied := run(false)
	at, events, dst := run(true)
	if at != wantAt || events != wantEvents {
		t.Errorf("no-bytes copy done at %v after %d items, the copy at %v after %d", at, events, wantAt, wantEvents)
	}
	if copied[0] == 0 || dst[0] != 0 || dst[4095] != 0 {
		t.Errorf("copy wrote %#x, no-bytes copy wrote %#x...%#x", copied[0], dst[0], dst[4095])
	}
}
