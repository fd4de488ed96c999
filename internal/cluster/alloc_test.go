package cluster

import (
	"runtime"
	"strings"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/sim"
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

// pingPong runs trips round trips of one vector of rows 4-byte rows at
// pitch 64 between two ranks on a fresh cluster built from cfg, in device
// memory or, with host set, in host memory; it checks the echo arrives
// byte-exact and returns the cluster. Rank 1 sleeps late before each
// Recv, so with late > 0 each of its messages arrives unexpected. Unless
// at is nil, rank 0 calls it with the trip's index before each trip and
// with trips after the last.
func pingPong(t *testing.T, cfg Config, rows int, host bool, late sim.Time, trips int, at func(trip int)) *Cluster {
	t.Helper()
	vec, err := datatype.Vector(rows, 4, 64, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	cl := New(cfg)
	span := vec.Span(1)
	alloc := func(n *Node) mem.Ptr {
		if host {
			return n.Rank.AllocHost(span)
		}
		return n.Ctx.MustMalloc(span)
	}
	var a, c mem.Ptr
	err = cl.Run(func(n *Node) {
		r := n.Rank
		if r.Rank() == 0 {
			a, c = alloc(n), alloc(n)
			mem.Fill(a, span, func(i int) byte { return byte(i*7 + 1) })
			for it := 0; it < trips; it++ {
				if at != nil {
					at(it)
				}
				r.Send(a, 1, vec, 1, it)
				r.Recv(c, 1, vec, 1, it)
			}
			if at != nil {
				at(trips)
			}
			return
		}
		b := alloc(n)
		for it := 0; it < trips; it++ {
			if late > 0 {
				r.Proc().Sleep(late)
			}
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
		t.Fatalf("echoed %d B vector differs from the one sent", vec.Size())
	}
	return cl
}

// eagerPingPong is pingPong of one 4 KB device vector (1024 rows), below
// the eager limit.
func eagerPingPong(t *testing.T, trips int, at func(int)) *Cluster {
	return pingPong(t, Config{Nodes: 2}, 1024, false, 0, trips, at)
}

// rndvPingPong is pingPong of one 32 KB device vector (8192 rows): above
// the eager limit, one pipeline chunk.
func rndvPingPong(t *testing.T, trips int, at func(int)) *Cluster {
	return pingPong(t, Config{Nodes: 2}, 8192, false, 0, trips, at)
}

// perTrip reports the host cost of one round trip of a ping-pong, read
// around its last trips inside one run: the first warm trips fill the
// pools and map the vbufs, and cluster setup, whose allocations vary
// from run to run under the race detector, stays outside the reading.
func perTrip(t *testing.T, pingPong func(t *testing.T, trips int, at func(int)) *Cluster) (bytes, mallocs float64) {
	const warm, trips = 50, 250
	var before, after runtime.MemStats
	pingPong(t, trips, func(it int) {
		switch it {
		case warm:
			runtime.GC()
			runtime.ReadMemStats(&before)
		case trips:
			runtime.ReadMemStats(&after)
		}
	})
	n := float64(trips - warm)
	return float64(int64(after.TotalAlloc-before.TotalAlloc)) / n, float64(int64(after.Mallocs-before.Mallocs)) / n
}

// TestEagerSteadyStateAllocs pins the heap-free eager path at no malloc
// per round trip. No 4 KiB payload may be allocated per message (the
// payload, snapshot and delivery buffers are recycled), and neither may a
// request, a staging record, a stream op's event, a post's completion
// event or a wire header.
func TestEagerSteadyStateAllocs(t *testing.T) {
	bytesPerTrip, mallocsPerTrip := perTrip(t, eagerPingPong)
	t.Logf("per round trip: %.0f heap bytes, %.1f mallocs", bytesPerTrip, mallocsPerTrip)
	checkNoAllocs(t, "4 KB eager", bytesPerTrip, mallocsPerTrip)
}

// Bounds of the zero-malloc pins. 0 heap bytes and 0 mallocs per round
// trip are measured; the margins admit the few stray runtime allocations
// that can land in the reading — ten mallocs or 12.8 KB over the 200
// trips it spans — and nothing that happens once per trip.
const (
	maxBytesPerTrip   = 64
	maxMallocsPerTrip = 0.05
)

// checkNoAllocs fails unless a ping-pong's round trip is heap-free.
func checkNoAllocs(t *testing.T, what string, bytesPerTrip, mallocsPerTrip float64) {
	t.Helper()
	if bytesPerTrip > maxBytesPerTrip {
		t.Errorf("%.0f heap bytes per %s round trip, want at most %d", bytesPerTrip, what, maxBytesPerTrip)
	}
	if mallocsPerTrip > maxMallocsPerTrip {
		t.Errorf("%.2f mallocs per %s round trip, want 0 (at most %.2f)", mallocsPerTrip, what, maxMallocsPerTrip)
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
	s, l := eagerPingPong(t, short, nil).Engine, eagerPingPong(t, long, nil).Engine
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

// TestRendezvousSteadyStateAllocs pins the rendezvous path at no malloc
// per round trip. The sender and receiver records, their per-chunk events
// and callbacks, the stream ops' and wire posts' completion events, the
// CTS slots, the FIN queue and the RDMA write's landing are reused, and
// so are the requests with their slot tables and the RTS, CTS and FIN
// headers.
func TestRendezvousSteadyStateAllocs(t *testing.T) {
	bytesPerTrip, mallocsPerTrip := perTrip(t, rndvPingPong)
	t.Logf("per round trip: %.0f heap bytes, %.1f mallocs", bytesPerTrip, mallocsPerTrip)
	checkNoAllocs(t, "32 KB rendezvous", bytesPerTrip, mallocsPerTrip)
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
	s, l := rndvPingPong(t, short, nil).Engine, rndvPingPong(t, long, nil).Engine
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

// hostRndvPingPong is pingPong of one 32 KB host vector (8192 rows, one
// chunk) between host-only nodes under the given rendezvous protocol.
func hostRndvPingPong(t *testing.T, mode mpi.RendezvousMode, trips int, at func(int)) *Cluster {
	cfg := Config{Nodes: 2, NoGPU: true}
	cfg.MPI.Rendezvous = mode
	return pingPong(t, cfg, 8192, true, 0, trips, at)
}

// TestHostRendezvousPins pins the host-memory rendezvous, put and get,
// as the tests above pin the device paths: the long-minus-short
// ping-pong's switches and events per round trip, and no malloc. The
// protocol helpers run as records, so the only processes are the ranks;
// each step takes the slot of a protocol process's wake-up, so a trip
// dispatches the items the processes did (62 put, 44 get), where it
// took 22 and 16 switches and 30 and 44 mallocs.
func TestHostRendezvousPins(t *testing.T) {
	for _, c := range []struct {
		name             string
		mode             mpi.RendezvousMode
		switches, events float64
	}{
		// Two resumes for each of a trip's four calls: after the
		// call-overhead Sleep and from the wait for completion.
		{"put", mpi.RendezvousPut, 8, 62},
		// A get sender packs in the rank: one more Sleep per Send.
		{"get", mpi.RendezvousGet, 10, 44},
	} {
		t.Run(c.name, func(t *testing.T) {
			const short, long = 50, 250
			s, l := hostRndvPingPong(t, c.mode, short, nil).Engine, hostRndvPingPong(t, c.mode, long, nil).Engine
			switches := float64(l.Switches()-s.Switches()) / (long - short)
			events := float64(l.Events()-s.Events()) / (long - short)
			bytesPerTrip, mallocsPerTrip := perTrip(t, func(t *testing.T, trips int, at func(int)) *Cluster {
				return hostRndvPingPong(t, c.mode, trips, at)
			})
			t.Logf("per round trip: %.2f switches, %.2f events, %.0f heap bytes, %.1f mallocs",
				switches, events, bytesPerTrip, mallocsPerTrip)
			if switches != c.switches {
				t.Errorf("%.2f process switches per 32 KB host round trip, want exactly %.0f", switches, c.switches)
			}
			if events != c.events {
				t.Errorf("%.2f events per 32 KB host round trip, want exactly %.0f", events, c.events)
			}
			checkNoAllocs(t, "32 KB host "+c.name, bytesPerTrip, mallocsPerTrip)
		})
	}
}

// TestUnexpectedArrivalAllocs pins messages that arrive before their
// receive is posted at no malloc per round trip. Rank 1 sleeps 1 ms
// before each Recv, longer than the sender's host pack takes (about
// 100 us for 4 KB, 800 us for a 32 KB get), so each message it gets
// waits in its unexpected queue: a 4 KB host eager payload, whose queued
// copy is recycled, and a 32 KB host put or get RTS. The queue holds
// arrivals by value.
func TestUnexpectedArrivalAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		rows int
		mode mpi.RendezvousMode
	}{
		{"eager", 1024, mpi.RendezvousPut},
		{"put", 8192, mpi.RendezvousPut},
		{"get", 8192, mpi.RendezvousGet},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Nodes: 2, NoGPU: true}
			cfg.MPI.Rendezvous = c.mode
			unexpected := 0
			bytesPerTrip, mallocsPerTrip := perTrip(t, func(t *testing.T, trips int, at func(int)) *Cluster {
				cl := pingPong(t, cfg, c.rows, true, sim.Millisecond, trips, at)
				unexpected = cl.Nodes[1].Rank.Stats().Unexpected
				return cl
			})
			t.Logf("per round trip: %.0f heap bytes, %.1f mallocs", bytesPerTrip, mallocsPerTrip)
			if unexpected != 250 {
				t.Errorf("rank 1 queued %d unexpected messages, want all 250", unexpected)
			}
			checkNoAllocs(t, "late-received host "+c.name, bytesPerTrip, mallocsPerTrip)
		})
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
