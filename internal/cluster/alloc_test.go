package cluster

import (
	"runtime"
	"strings"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/mem"
)

// hostAllocs reports the heap bytes and malloc count fn costs the host.
func hostAllocs(fn func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// eagerPingPong runs trips round trips of one 4 KB device vector (1024
// rows of 4 B at pitch 64, below the eager limit) between two ranks on a
// fresh cluster, checks the echo arrives byte-exact, and returns the
// cluster.
func eagerPingPong(t *testing.T, trips int) *Cluster {
	t.Helper()
	vec, err := datatype.Vector(1024, 4, 64, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	cl := New(Config{Nodes: 2})
	span := vec.Span(1)
	var a, c mem.Ptr
	err = cl.Run(func(n *Node) {
		r := n.Rank
		if r.Rank() == 0 {
			a, c = n.Ctx.MustMalloc(span), n.Ctx.MustMalloc(span)
			mem.Fill(a, span, func(i int) byte { return byte(i*7 + 1) })
			for it := 0; it < trips; it++ {
				r.Send(a, 1, vec, 1, it)
				r.Recv(c, 1, vec, 1, it)
			}
			return
		}
		b := n.Ctx.MustMalloc(span)
		for it := 0; it < trips; it++ {
			r.Recv(b, 1, vec, 0, it)
			r.Send(b, 1, vec, 0, it)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sent, echoed := make([]byte, vec.Size()), make([]byte, vec.Size())
	vec.PackBytes(sent, a, 1)
	vec.PackBytes(echoed, c, 1)
	if string(sent) != string(echoed) {
		t.Fatal("echoed 4 KB vector differs from the one sent")
	}
	return cl
}

// TestEagerSteadyStateAllocs pins the heap-free eager path. The host cost
// of a round trip is the difference between a long and a short ping-pong,
// so cluster setup and the pools' warm-up cancel out. No 4 KiB payload may
// be allocated per message (the payload, snapshot and delivery buffers
// are recycled), and the malloc count is held to its measured value.
func TestEagerSteadyStateAllocs(t *testing.T) {
	const short, long = 50, 250
	b0, m0 := hostAllocs(func() { eagerPingPong(t, short) })
	b1, m1 := hostAllocs(func() { eagerPingPong(t, long) })
	bytesPerTrip := float64(int64(b1)-int64(b0)) / (long - short)
	mallocsPerTrip := float64(int64(m1)-int64(m0)) / (long - short)
	t.Logf("per round trip: %.0f heap bytes, %.1f mallocs", bytesPerTrip, mallocsPerTrip)
	if bytesPerTrip > 6<<10 {
		t.Errorf("%.0f heap bytes per 4 KB round trip, want under 6 KiB: a payload buffer is allocated per message", bytesPerTrip)
	}
	const maxMallocs = 54
	if mallocsPerTrip > maxMallocs {
		t.Errorf("%.1f mallocs per 4 KB round trip, want at most %d", mallocsPerTrip, maxMallocs)
	}
}

// TestEagerSwitchesPerTrip pins the process handoffs of the eager path,
// long minus short ping-pong as above: a process whose wake-up is the
// next item keeps running instead of switching out and back, hardware
// models (CUDA streams, HCA transfers) run as scheduled calls rather than
// processes, and each switch that remains is needed for a call or
// another process to run.
func TestEagerSwitchesPerTrip(t *testing.T) {
	const short, long = 50, 250
	s, l := eagerPingPong(t, short).Engine, eagerPingPong(t, long).Engine
	perTrip := float64(l.Switches()-s.Switches()) / (long - short)
	t.Logf("per round trip: %.2f switches, %.2f events",
		perTrip, float64(l.Events()-s.Events())/(long-short))
	if perTrip != 16 {
		t.Errorf("%.2f process switches per 4 KB round trip, want exactly 16", perTrip)
	}
}

// TestSetupAllocs pins the pay-per-use pinned staging range: building the
// default two-node cluster maps no vbuf, so it allocates well under the
// 2 x 64 vbufs x 64 KiB a fully mapped range would cost per node.
func TestSetupAllocs(t *testing.T) {
	var cl *Cluster
	b, _ := hostAllocs(func() { cl = New(Config{}) })
	if b >= 1<<20 {
		t.Errorf("cluster.New allocated %d bytes, want under 1 MiB", b)
	}
	for i, n := range cl.Nodes {
		if m := n.Pinned.Mappings(); m != 0 {
			t.Errorf("node %d: fresh pinned range maps %d extents, want 0", i, m)
		}
	}
}

// TestPinnedMappedPerVbufUsed: after a rendezvous run, each node's pinned
// range maps exactly the distinct vbufs its pools ever handed out — with
// LIFO reuse, their concurrent-hold high-water marks — each under its own
// rkey, and a vbuf never handed out has no bytes behind it.
func TestPinnedMappedPerVbufUsed(t *testing.T) {
	vec, err := datatype.Vector(64<<10, 16, 32, datatype.Byte) // 1 MiB packed
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	cl := New(Config{Nodes: 2})
	err = cl.Run(func(n *Node) {
		buf := n.Ctx.MustMalloc(vec.Span(1))
		if n.Rank.Rank() == 0 {
			n.Rank.Send(buf, 1, vec, 1, 0)
		} else {
			n.Rank.Recv(buf, 1, vec, 0, 0)
		}
		if err := n.Ctx.Free(buf); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range cl.Nodes {
		used := n.Pool.MaxHeld() + n.RecvPool.MaxHeld()
		if used == 0 || n.Pool.Mapped()+n.RecvPool.Mapped() != used || n.Pinned.Mappings() != used {
			t.Errorf("node %d: pinned extents %d, pools mapped %d+%d, want the %d vbufs ever held",
				i, n.Pinned.Mappings(), n.Pool.Mapped(), n.RecvPool.Mapped(), used)
		}
		rkeys := map[uint32]bool{}
		for _, p := range []*hostmem.Pool{n.Pool, n.RecvPool} {
			var held []*hostmem.Vbuf
			for j := 0; j < p.Mapped(); j++ { // LIFO: the mapped vbufs come first
				v, _ := p.TryGet()
				rkeys[v.Region.Rkey] = true
				held = append(held, v)
			}
			for _, v := range held {
				p.Put(v)
			}
		}
		if len(rkeys) != used || n.Pinned.Mappings() != used {
			t.Errorf("node %d: %d distinct rkeys over %d mapped vbufs", i, len(rkeys), used)
		}
		untaken := n.Pinned.Base() // vbuf 0 of the send pool, bottom of its free stack
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, untaken.String()) {
					t.Errorf("node %d: reading a never-taken vbuf: panic %q does not name %v", i, msg, untaken)
				}
			}()
			untaken.Bytes(64)
		}()
	}
}
