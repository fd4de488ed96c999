package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// progMsg is one message of a random program: count elements of
// types[typ] from rank src to rank dst (a self-send when equal), between
// device buffers unless hostSrc or hostDst puts that end in host memory.
type progMsg struct {
	src, dst, typ, count int
	hostSrc, hostDst     bool
}

// progPost is one call of a rank's script: after gap, optionally start
// an application kernel (foreign load on the kernel engine), then post
// the send or the receive of message msg.
type progPost struct {
	gap    sim.Time
	kernel int // cells of an application kernel launched first; 0: none
	msg    int
	recv   bool
}

// program is a random point-to-point program on a cluster built from cfg.
type program struct {
	cfg     cluster.Config
	types   []*datatype.Datatype
	msgs    []progMsg
	scripts [][]progPost // by rank
}

// schedule interleaves the send and the receive of every message into
// the scripts of their ranks at random points, with random gaps and
// foreign kernels.
func (pg *program) schedule(rng *rand.Rand) {
	pg.scripts = make([][]progPost, pg.cfg.Nodes)
	for i, m := range pg.msgs {
		for _, p := range []progPost{{msg: i}, {msg: i, recv: true}} {
			rank := m.src
			if p.recv {
				rank = m.dst
			}
			p.gap = sim.Time(rng.Intn(4)) * sim.Microsecond
			if rng.Intn(5) == 0 {
				p.kernel = 1 + rng.Intn(4000)
			}
			s := pg.scripts[rank]
			at := rng.Intn(len(s) + 1)
			pg.scripts[rank] = append(s[:at], append([]progPost{p}, s[at:]...)...)
		}
	}
}

// genEagerProgram draws a two-rank program of eager messages and
// self-sends over contiguous, vector and indexed types, sized from one
// row to several pipeline chunks, on pools of one or two vbufs.
func genEagerProgram(seed int64) program {
	rng := rand.New(rand.NewSource(seed))
	modes := []core.PackMode{core.PackModeAuto, core.PackModeKernel, core.PackModeMemcpy2D}
	pg := program{cfg: cluster.Config{
		Nodes: 2, VbufCount: 1 + rng.Intn(2),
		MPI:  mpi.Config{BlockSize: 256 << rng.Intn(3)},
		Core: core.Config{PackMode: modes[rng.Intn(len(modes))], UnpackMode: modes[rng.Intn(len(modes))]},
	}}
	for i := 0; i < 4; i++ {
		var dt *datatype.Datatype
		var err error
		switch rng.Intn(3) {
		case 0:
			dt, err = datatype.Contiguous(1+rng.Intn(3000), datatype.Byte)
		case 1:
			w := 4 << rng.Intn(4)
			dt, err = datatype.Vector(1+rng.Intn(80), w, w+rng.Intn(48), datatype.Byte)
		default:
			n := 1 + rng.Intn(20)
			lens, displs := make([]int, n), make([]int, n)
			at := rng.Intn(8)
			for j := range lens {
				lens[j] = 1 + rng.Intn(40)
				displs[j] = at
				at += lens[j] + rng.Intn(24)
			}
			dt, err = datatype.Indexed(lens, displs, datatype.Byte)
		}
		if err != nil {
			panic(err)
		}
		dt.MustCommit()
		pg.types = append(pg.types, dt)
	}
	for i := 2 + rng.Intn(7); i > 0; i-- {
		m := progMsg{src: rng.Intn(2), dst: rng.Intn(2), typ: rng.Intn(len(pg.types)), count: 1 + rng.Intn(2)}
		pg.msgs = append(pg.msgs, m)
	}
	pg.schedule(rng)
	return pg
}

type progResult struct {
	fired  []string
	events uint64
	recv   []string // each message's received buffer
	pools  []string
	trace  string
	waits  uint64 // vbuf exhaustion waits
}

// runProgram runs pg on a fresh cluster, with the transport's own GPU
// paths or, when wrap is set, with the transport wrap returns.
func runProgram(t *testing.T, pg program, wrap func(*core.Transport) mpi.GPUTransport) progResult {
	t.Helper()
	chrome := obs.NewChromeTracer()
	cfg := pg.cfg
	cfg.Tracers = []obs.Tracer{chrome}
	cl := cluster.New(cfg)
	if wrap != nil {
		cl.World.SetGPUTransport(wrap(cl.Transport))
	}
	ref := wrap != nil
	var res progResult
	cl.Engine.SetTracer(func(at sim.Time, msg string) {
		if strings.HasPrefix(msg, "event ") {
			res.fired = append(res.fired, fmt.Sprintf("%v %s", at, msg))
		}
	})
	// An indexed type may start past its buffer's base: a buffer covers
	// its lower bound and span.
	bufLen := func(m progMsg) int { return pg.types[m.typ].LB() + pg.types[m.typ].Span(m.count) }
	sendBufs, recvBufs := make([]mem.Ptr, len(pg.msgs)), make([]mem.Ptr, len(pg.msgs))
	alloc := func(n *cluster.Node, host bool, size int) mem.Ptr {
		if host {
			return n.Rank.AllocHost(size)
		}
		return n.Ctx.MustMalloc(size)
	}
	free := func(n *cluster.Node, host bool, p mem.Ptr) {
		if host {
			n.Rank.FreeHost(p)
		} else if err := n.Ctx.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range pg.msgs {
		sendBufs[i] = alloc(cl.Nodes[m.src], m.hostSrc, bufLen(m))
		recvBufs[i] = alloc(cl.Nodes[m.dst], m.hostDst, bufLen(m))
		mem.Fill(sendBufs[i], bufLen(m), func(j int) byte { return byte(j*7 + i + 1) })
	}
	err := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		app := n.Ctx.NewStream()
		var reqs []*mpi.Request
		for _, p := range pg.scripts[r.Rank()] {
			r.Proc().Sleep(p.gap)
			if p.kernel > 0 {
				n.Ctx.LaunchKernel(r.Proc(), app, p.kernel, 1, nil)
			}
			m := pg.msgs[p.msg]
			dt := pg.types[m.typ]
			if p.recv {
				reqs = append(reqs, r.Irecv(recvBufs[p.msg], m.count, dt, m.src, p.msg))
			} else {
				reqs = append(reqs, r.Isend(sendBufs[p.msg], m.count, dt, m.dst, p.msg))
			}
		}
		r.Waitall(reqs...)
	})
	if err != nil {
		t.Fatalf("ref=%v: %v", ref, err)
	}
	for i, m := range pg.msgs {
		dt := pg.types[m.typ]
		sent, got := make([]byte, dt.Size()*m.count), make([]byte, dt.Size()*m.count)
		dt.PackBytes(sent, sendBufs[i], m.count)
		dt.PackBytes(got, recvBufs[i], m.count)
		if string(sent) != string(got) {
			t.Errorf("ref=%v: message %d (%s x%d) arrived corrupt", ref, i, dt.Name(), m.count)
		}
		res.recv = append(res.recv, string(recvBufs[i].Bytes(bufLen(m))))
	}
	for i, m := range pg.msgs {
		free(cl.Nodes[m.src], m.hostSrc, sendBufs[i])
		free(cl.Nodes[m.dst], m.hostDst, recvBufs[i])
	}
	// Every tbuf the transport allocated has been freed.
	if err := cl.CheckDeviceLeaks(); err != nil {
		t.Errorf("ref=%v: %v", ref, err)
	}
	for _, n := range cl.Nodes {
		for _, p := range []interface {
			Stats() string
			MaxHeld() int
			Waits() uint64
			Mapped() int
			Free() int
		}{n.Pool, n.RecvPool} {
			res.pools = append(res.pools, fmt.Sprintf("%s maxHeld=%d waits=%d mapped=%d free=%d",
				p.Stats(), p.MaxHeld(), p.Waits(), p.Mapped(), p.Free()))
			res.waits += p.Waits()
		}
	}
	res.events = cl.Engine.Events()
	res.trace = chrome.JSON()
	return res
}

// sameRun reports whether a run matches its reference run: the same
// event firings, item count, received memory, pool counters and Chrome
// trace. It reports the first difference.
func sameRun(t *testing.T, seed int64, got, want progResult) bool {
	t.Helper()
	if g, w := strings.Join(got.fired, "\n"), strings.Join(want.fired, "\n"); g != w {
		for i := range got.fired {
			if i >= len(want.fired) || got.fired[i] != want.fired[i] {
				t.Errorf("seed %d: firing %d: %q, reference %q", seed, i, got.fired[i], want.fired[min(i, len(want.fired)-1)])
				break
			}
		}
		t.Errorf("seed %d: %d firings, reference %d", seed, len(got.fired), len(want.fired))
		return false
	}
	switch {
	case got.events != want.events:
		t.Errorf("seed %d: %d events, reference %d", seed, got.events, want.events)
	case strings.Join(got.recv, "") != strings.Join(want.recv, ""):
		t.Errorf("seed %d: received memory differs from the reference", seed)
	case strings.Join(got.pools, "\n") != strings.Join(want.pools, "\n"):
		t.Errorf("seed %d: pools\n%s\nreference\n%s", seed, strings.Join(got.pools, "\n"), strings.Join(want.pools, "\n"))
	case got.trace != want.trace:
		t.Errorf("seed %d: Chrome trace differs from the reference", seed)
	default:
		return true
	}
	return false
}

// TestPropEagerMatchesReference runs random eager programs — cross-node
// sends and self-sends of contiguous, vector and indexed types, from one
// row to several chunks, under every pack mode, with foreign kernels on
// the device and one- or two-vbuf pools — through the eager records and
// through the reference staging processes, and requires the same event
// firings, item count, received memory, pool counters and Chrome trace.
func TestPropEagerMatchesReference(t *testing.T) {
	var serial, double, blocked int // runs that reach each vbuf path
	f := func(seed int64) bool {
		pg := genEagerProgram(seed)
		got := runProgram(t, pg, nil)
		want := runProgram(t, pg, core.RefEagerTransport)
		for _, m := range pg.msgs {
			if pg.types[m.typ].Size()*m.count > pg.cfg.MPI.BlockSize {
				if pg.cfg.VbufCount == 1 {
					serial++
				} else {
					double++
				}
				break
			}
		}
		if got.waits > 0 {
			blocked++
		}
		return sameRun(t, seed, got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	// The programs must reach every vbuf path: the serial single-vbuf
	// loop (TryGet failed), the double-buffered loop, and a Get that
	// blocks on an exhausted pool.
	if serial == 0 || double == 0 || blocked == 0 {
		t.Errorf("programs reached the serial path %d times, the double-buffered path %d, blocked Gets %d; want all",
			serial, double, blocked)
	}
	t.Logf("%d serial-path runs, %d double-buffered, %d with blocked Gets", serial, double, blocked)
}
