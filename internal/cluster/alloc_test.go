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

// perTrip reports the host cost of one round trip of pingPong: the
// difference between a long and a short run over their trip counts, so
// cluster setup and the pools' warm-up cancel out. A first, unmeasured
// run leaves the vbuf bytes both runs map in mem's recycler.
func perTrip(pingPong func(trips int) *Cluster) (bytes, mallocs float64) {
	const short, long = 50, 250
	pingPong(1)
	b0, m0 := hostAllocs(func() { pingPong(short) })
	b1, m1 := hostAllocs(func() { pingPong(long) })
	return float64(int64(b1)-int64(b0)) / (long - short), float64(int64(m1)-int64(m0)) / (long - short)
}

// TestEagerSteadyStateAllocs pins the heap-free eager path. No 4 KiB
// payload may be allocated per message (the payload, snapshot and
// delivery buffers are recycled), and neither may a request, a staging
// record, a stream op's event or a post's completion event: what is left
// per trip is the two eager headers the HCA carries.
func TestEagerSteadyStateAllocs(t *testing.T) {
	bytesPerTrip, mallocsPerTrip := perTrip(func(trips int) *Cluster { return eagerPingPong(t, trips) })
	t.Logf("per round trip: %.0f heap bytes, %.1f mallocs", bytesPerTrip, mallocsPerTrip)
	if bytesPerTrip > 256 {
		t.Errorf("%.0f heap bytes per 4 KB round trip, want at most 256", bytesPerTrip)
	}
	const maxMallocs = 4
	if mallocsPerTrip > maxMallocs {
		t.Errorf("%.1f mallocs per 4 KB round trip, want at most %d", mallocsPerTrip, maxMallocs)
	}
}

// TestEagerSwitchesPerTrip pins the process handoffs of the eager path,
// long minus short ping-pong as above. Hardware models (CUDA streams,
// HCA transfers) and core's eager staging run as scheduled calls rather
// than processes, so the only processes are the two ranks. Each of a
// trip's four Send and Recv calls resumes its rank twice: once after the
// call-overhead Sleep and once from the wait for completion. The 68
// items a trip dispatches are the same as when the staging was processes.
func TestEagerSwitchesPerTrip(t *testing.T) {
	const short, long = 50, 250
	s, l := eagerPingPong(t, short).Engine, eagerPingPong(t, long).Engine
	perTrip := float64(l.Switches()-s.Switches()) / (long - short)
	events := float64(l.Events()-s.Events()) / (long - short)
	t.Logf("per round trip: %.2f switches, %.2f events", perTrip, events)
	if perTrip != 8 {
		t.Errorf("%.2f process switches per 4 KB round trip, want exactly 8", perTrip)
	}
	if events != 68 {
		t.Errorf("%.2f events per 4 KB round trip, want exactly 68", events)
	}
}

// rndvPingPong runs trips round trips of one 32 KB device vector (8192
// rows of 4 B at pitch 64: above the eager limit, one pipeline chunk)
// between two ranks on a fresh cluster, checks the echo arrives
// byte-exact, and returns the cluster.
func rndvPingPong(t *testing.T, trips int) *Cluster {
	t.Helper()
	vec, err := datatype.Vector(8192, 4, 64, datatype.Byte)
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
		t.Fatal("echoed 32 KB vector differs from the one sent")
	}
	return cl
}

// TestRendezvousSteadyStateAllocs pins the rendezvous path's host cost.
// The sender and receiver records, their per-chunk events and callbacks,
// the stream ops' and wire posts' completion events, the CTS slots and
// the FIN queue and the RDMA write's landing are all reused. What is
// left is per-request protocol state: the two requests of each transfer,
// the RTS, CTS and FIN headers and the sender's slot table.
func TestRendezvousSteadyStateAllocs(t *testing.T) {
	bytesPerTrip, mallocsPerTrip := perTrip(func(trips int) *Cluster { return rndvPingPong(t, trips) })
	t.Logf("per round trip: %.0f heap bytes, %.1f mallocs", bytesPerTrip, mallocsPerTrip)
	if bytesPerTrip > 4<<10 {
		t.Errorf("%.0f heap bytes per 32 KB rendezvous round trip, want at most 4 KiB", bytesPerTrip)
	}
	// 12 measured; the one spare covers a stray runtime malloc that
	// lands in the long run when the whole package runs.
	const maxMallocs = 13
	if mallocsPerTrip > maxMallocs {
		t.Errorf("%.1f mallocs per 32 KB rendezvous round trip, want at most %d", mallocsPerTrip, maxMallocs)
	}
}

// TestRendezvousSwitchesPerTransfer pins the process handoffs of the
// rendezvous path, long minus short ping-pong as above. The pipeline's
// sender and receiver run as continuations, so the switches left are the
// ranks' resumes: two for each of a trip's four Send and Recv calls, one
// after the call-overhead Sleep and one from the wait for completion.
// Each step takes the slot of a pipeline process's wake-up, the start
// call that of its start-up resume, so a trip dispatches the 94 items the
// process pipeline (core's test reference) does.
func TestRendezvousSwitchesPerTransfer(t *testing.T) {
	const short, long = 50, 250
	s, l := rndvPingPong(t, short).Engine, rndvPingPong(t, long).Engine
	perTrip := float64(l.Switches()-s.Switches()) / (long - short)
	events := float64(l.Events()-s.Events()) / (long - short)
	t.Logf("per round trip: %.2f switches, %.2f events", perTrip, events)
	if perTrip != 8 {
		t.Errorf("%.2f process switches per 32 KB rendezvous round trip, want exactly 8", perTrip)
	}
	if events != 94 {
		t.Errorf("%.2f events per 32 KB rendezvous round trip, want exactly 94", events)
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

// TestPinnedMappedPerVbufUsed: at the end of a rendezvous run, each
// node's pinned range maps exactly the distinct vbufs its pools ever
// handed out — with LIFO reuse, their concurrent-hold high-water marks —
// each under its own rkey, and a vbuf never handed out has no bytes
// behind it. Once Run returns, the pools have unmapped every vbuf.
func TestPinnedMappedPerVbufUsed(t *testing.T) {
	vec, err := datatype.Vector(64<<10, 16, 32, datatype.Byte) // 1 MiB packed
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	cl := New(Config{Nodes: 2})
	checked := 0
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
		// After the barrier both sides of the transfer are done and every
		// vbuf is back in its pool.
		n.Rank.Barrier()
		checkPinnedPerVbuf(t, n)
		checked++
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked != len(cl.Nodes) {
		t.Fatalf("checked %d nodes, want %d", checked, len(cl.Nodes))
	}
	for i, n := range cl.Nodes {
		if m := n.Pinned.Mappings(); m != 0 {
			t.Errorf("node %d: pinned range maps %d extents after Run, want 0", i, m)
		}
	}
}

func checkPinnedPerVbuf(t *testing.T, n *Node) {
	i := n.Rank.Rank()
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
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, untaken.String()) {
			t.Errorf("node %d: reading a never-taken vbuf: panic %q does not name %v", i, msg, untaken)
		}
	}()
	untaken.Bytes(64)
}
