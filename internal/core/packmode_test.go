package core_test

import (
	"strings"
	"testing"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/sim"
)

func TestPackModeStringParseRoundTrip(t *testing.T) {
	for _, m := range []core.PackMode{core.PackModeAuto, core.PackModeMemcpy2D, core.PackModeKernel} {
		got, err := core.ParsePackMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParsePackMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := core.ParsePackMode("dma"); err == nil {
		t.Error("ParsePackMode must reject unknown modes")
	}
	if s := core.PackMode(9).String(); s != "packmode(9)" {
		t.Errorf("out-of-range String() = %q", s)
	}
}

// shortRowLatency runs one 1 MB transfer of 4-byte rows — deep inside the
// kernel-wins regime — under the given sender pack mode (unpack pinned to
// memcpy2D so only the pack side varies) and returns the sender's
// measured latency plus the sender device's kernel count. busyFor > 0
// occupies the sender's compute engine with an application kernel of that
// duration before the send is posted.
func shortRowLatency(t *testing.T, mode core.PackMode, busyFor sim.Time) (sim.Time, int) {
	t.Helper()
	v, _ := datatype.Vector(1<<18, 4, 16, datatype.Byte) // 1 MB packed
	v.MustCommit()
	var elapsed sim.Time
	cfg := cluster.Config{GPUMemBytes: 64 << 20}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = core.PackModeMemcpy2D
	cl := runPair(t, cfg, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		switch r.Rank() {
		case 0:
			if busyFor > 0 {
				nsPerCell := float64(busyFor / sim.Nanosecond)
				n.Ctx.LaunchKernel(r.Proc(), n.Ctx.NewStream(), 1, nsPerCell, nil)
			}
			t0 := r.Now()
			r.Send(buf, 1, v, 1, 0)
			r.Recv(buf, 0, datatype.Byte, 1, 1) // ack
			elapsed = r.Now() - t0
		case 1:
			r.Recv(buf, 1, v, 0, 0)
			r.Send(buf, 0, datatype.Byte, 0, 1)
		}
	})
	return elapsed, cl.Nodes[0].Dev.Stats().Kernels
}

// TestAutoPicksKernelForShortRows: for a shape past the modeled
// crossover, PackModeAuto must run pack kernels and beat the pinned
// copy-engine pipeline end to end.
func TestAutoPicksKernelForShortRows(t *testing.T) {
	auto, autoKernels := shortRowLatency(t, core.PackModeAuto, 0)
	copyT, copyKernels := shortRowLatency(t, core.PackModeMemcpy2D, 0)
	if autoKernels == 0 {
		t.Error("auto mode launched no pack kernels for 4-byte rows")
	}
	if copyKernels != 0 {
		t.Errorf("pinned memcpy2d mode launched %d kernels", copyKernels)
	}
	if auto >= copyT {
		t.Errorf("auto latency %v not below memcpy2d latency %v for short rows", auto, copyT)
	}
	kern, _ := shortRowLatency(t, core.PackModeKernel, 0)
	if auto != kern {
		t.Errorf("auto latency %v differs from pinned kernel latency %v on an idle engine", auto, kern)
	}
}

// TestAutoFallsBackUnderApplicationKernel: with an application kernel
// holding the compute engine for longer than the whole transfer, auto
// must route the pack to the idle copy engine — same schedule as pinned
// memcpy2D — instead of serializing behind compute.
func TestAutoFallsBackUnderApplicationKernel(t *testing.T) {
	const busy = 100 * sim.Millisecond
	busyAuto, busyKernels := shortRowLatency(t, core.PackModeAuto, busy)
	copyT, _ := shortRowLatency(t, core.PackModeMemcpy2D, 0)
	if busyKernels != 1 { // the application kernel only
		t.Errorf("busy-engine auto launched %d kernels, want only the application's 1", busyKernels)
	}
	if busyAuto != copyT {
		t.Errorf("busy-engine auto latency %v, want the copy-engine schedule %v", busyAuto, copyT)
	}
	// Pinning the kernel mode under the same load serializes behind the
	// application kernel — the cost auto just avoided.
	busyKern, _ := shortRowLatency(t, core.PackModeKernel, busy)
	if busyKern <= busy {
		t.Errorf("pinned kernel mode under load finished in %v, expected to serialize past %v", busyKern, busy)
	}

	// The handoff instant: auto must see the application kernel as soon as
	// the transport's last kernel completes, even at that very instant —
	// the kernel-count decrement runs inline in the completion, not in a
	// later slot. An eager and a rendezvous send each pack by kernel; an
	// application kernel queues behind that pack; a 4 KB eager send is
	// posted so that its plan is made at the pack's completion instant,
	// after the completion but before any step it schedules.
	for _, first := range []int{8 << 10, 48 << 10} {
		_, start, end := kernelHandoff(t, first, 0, 0)
		if got, _, _ := kernelHandoff(t, first, start, end); got != 2 {
			t.Errorf("%d B first send: sender ran %d kernels, want 2 (its pack and the application's): "+
				"auto planned at the pack's completion (%v) ignored the application kernel", first, got, end)
		}
	}
}

// kernelHandoff sends a vector of first bytes (4-byte rows) from rank 0
// under auto and returns the sender device's kernel count and the span of
// its first kernel, the send's pack. Given that span (packEnd > 0), rank 0
// also queues a long application kernel behind the pack and sends a 4 KB
// vector whose plan is made at packEnd.
func kernelHandoff(t *testing.T, first int, packStart, packEnd sim.Time) (kernels int, start, end sim.Time) {
	t.Helper()
	big, _ := datatype.Vector(first/4, 4, 16, datatype.Byte)
	big.MustCommit()
	small, _ := datatype.Vector(1024, 4, 16, datatype.Byte)
	small.MustCommit()
	col := critpath.NewCollector()
	cfg := cluster.Config{GPUMemBytes: 64 << 20, Tracers: []obs.Tracer{col}}
	cfg.Core.UnpackMode = core.PackModeMemcpy2D
	late := false
	cl := runPair(t, cfg, func(n *cluster.Node) {
		r := n.Rank
		b1, b2 := n.Ctx.MustMalloc(big.Span(1)), n.Ctx.MustMalloc(small.Span(1))
		if r.Rank() == 1 {
			r.Recv(b1, 1, big, 0, 0)
			if packEnd > 0 {
				r.Recv(b2, 1, small, 0, 1)
			}
			return
		}
		q := r.Isend(b1, 1, big, 1, 0)
		if packEnd > 0 {
			p := r.Proc()
			p.Sleep(packStart - r.Now())
			n.Ctx.LaunchKernel(p, n.Ctx.NewStream(), 1, float64(sim.Millisecond/sim.Nanosecond), nil)
			// The send's call overhead ends at packEnd, in a slot taken
			// after the pack's completion was scheduled.
			plan := packEnd - r.World().Config().CallOverhead
			if late = r.Now() >= plan; !late {
				p.Sleep(plan - r.Now())
				r.Send(b2, 1, small, 1, 1)
			}
		}
		r.Wait(q)
	})
	if late {
		t.Fatalf("%d B send: the application kernel was queued after %v, too late to post at the pack's end", first, packEnd)
	}
	for _, tk := range col.Tasks() {
		if tk.Kind == obs.KindKernel && strings.HasPrefix(tk.Where, "gpu0.") {
			start, end = tk.Start, tk.End
			break
		}
	}
	if end == 0 {
		t.Fatalf("%d B send ran no pack kernel", first)
	}
	return cl.Nodes[0].Dev.Stats().Kernels, start, end
}

// tailTransfer runs a kernel-pinned rendezvous transfer of `rows` 4-byte
// rows (pitch 16) and returns each side's device kernel count, verifying
// the receiver's typed segments against the sender's fill on the way.
func tailTransfer(t *testing.T, rows int) (packKernels, unpackKernels int) {
	t.Helper()
	v, err := datatype.Vector(rows, 4, 16, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	v.MustCommit()
	cfg := cluster.Config{GPUMemBytes: 64 << 20}
	cfg.Core.PackMode = core.PackModeKernel
	cfg.Core.UnpackMode = core.PackModeKernel
	var rbuf mem.Ptr
	cl := runPair(t, cfg, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		if r.Rank() == 0 {
			fillDev(buf, v.Span(1), 3)
			r.Send(buf, 1, v, 1, 0)
		} else {
			rbuf = buf
			r.Recv(buf, 1, v, 0, 0)
		}
	})
	checkTyped(t, v, 1, rbuf, 3, "tail transfer")
	return cl.Nodes[0].Dev.Stats().Kernels, cl.Nodes[1].Dev.Stats().Kernels
}

// TestKernelModeTailFallsBackToCopyEngine: a pinned-kernel transfer of
// 2 full 64 KiB chunks plus a 100-row tail — one row below the measured
// 101-row crossover — must pack/unpack the two full chunks by kernel and
// the tail by memcpy2D: 2 kernels per side, not 3. One more row of tail
// crosses the break-even and the tail stays on the kernel.
func TestKernelModeTailFallsBackToCopyEngine(t *testing.T) {
	const chunkRows = (64 << 10) / 4
	shortK, shortU := tailTransfer(t, 2*chunkRows+100)
	if shortK != 2 || shortU != 2 {
		t.Errorf("100-row tail: %d pack / %d unpack kernels, want 2/2 (tail on the copy engine)", shortK, shortU)
	}
	deepK, deepU := tailTransfer(t, 2*chunkRows+101)
	if deepK != 3 || deepU != 3 {
		t.Errorf("101-row tail: %d pack / %d unpack kernels, want 3/3 (tail past break-even stays on the kernel)", deepK, deepU)
	}
}
