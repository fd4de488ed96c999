package mpi_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/cluster"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// TestBlockingRoundTripsRecycleRequests: blocking Send, Recv and
// Sendrecv put their requests back on the rank's free list once
// completed, eager or rendezvous, and new requests come from it. After
// the first round of a ping-pong plus an exchange, no further round
// allocates a request — for host and device buffers, under the put and
// the get protocol, eager and rendezvous. A recycled request still
// returns its own Status and delivers its own round's bytes: every
// receive checks both.
func TestBlockingRoundTripsRecycleRequests(t *testing.T) {
	const rounds = 6
	vec, err := datatype.Vector(6<<10, 16, 32, datatype.Byte) // 96 KiB packed: two chunks
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	for _, mode := range []mpi.RendezvousMode{mpi.RendezvousPut, mpi.RendezvousGet} {
		for _, device := range []bool{false, true} {
			for _, c := range []struct {
				name  string
				dt    *datatype.Datatype
				count int
			}{{"eager", datatype.Byte, 512}, {"rendezvous", vec, 1}} {
				name := fmt.Sprintf("mode=%d/device=%v/%s", mode, device, c.name)
				t.Run(name, func(t *testing.T) {
					cfg := cluster.Config{Nodes: 2}
					cfg.MPI.Rendezvous = mode
					cl := cluster.New(cfg)
					span := c.dt.Span(c.count)
					size := c.dt.Size() * c.count
					pattern := func(j int, seed byte) byte { return byte(j*7) + seed }
					// want is what a receive of a buffer filled with seed's
					// pattern must pack to.
					want := func(seed byte) []byte {
						out := make([]byte, 0, size)
						for _, sg := range c.dt.SegmentsOf(c.count) {
							for j := sg.Off; j < sg.Off+sg.Len; j++ {
								out = append(out, pattern(j, seed))
							}
						}
						return out
					}
					first, last := make([]int, 2), make([]int, 2)
					err := cl.Run(func(n *cluster.Node) {
						r := n.Rank
						alloc := func() mem.Ptr {
							if device {
								return n.Ctx.MustMalloc(span)
							}
							return r.AllocHost(span)
						}
						a, b := alloc(), alloc()
						got := make([]byte, size)
						peer := 1 - r.Rank()
						fill := func(p mem.Ptr, seed byte) { mem.Fill(p, span, func(j int) byte { return pattern(j, seed) }) }
						zero := func(p mem.Ptr) { mem.Fill(p, span, func(int) byte { return 0 }) }
						check := func(st mpi.Status, i int, seed byte, what string) {
							if st.Source != peer || st.Tag != i || st.Bytes != size {
								t.Errorf("rank %d round %d %s: status %+v, want source %d tag %d bytes %d",
									r.Rank(), i, what, st, peer, i, size)
							}
							c.dt.PackBytes(got, b, c.count)
							if string(got) != string(want(seed)) {
								t.Errorf("rank %d round %d %s: received bytes differ from the sent pattern", r.Rank(), i, what)
							}
						}
						for i := 0; i < rounds; i++ {
							echo := byte(3*i + 1)
							zero(b)
							if r.Rank() == 0 {
								fill(a, echo)
								r.Send(a, c.count, c.dt, peer, i)
								check(r.Recv(b, c.count, c.dt, peer, i), i, echo, "echo")
							} else {
								check(r.Recv(b, c.count, c.dt, peer, i), i, echo, "recv")
								r.Send(b, c.count, c.dt, peer, i)
							}
							mine, theirs := byte(3*i+2+r.Rank()), byte(3*i+2+peer)
							fill(a, mine)
							zero(b)
							check(r.Sendrecv(a, c.count, c.dt, peer, i, b, c.count, c.dt, peer, i), i, theirs, "sendrecv")
							if i == 0 {
								first[r.Rank()] = mpi.AllocatedRequests(r)
							}
						}
						last[r.Rank()] = mpi.AllocatedRequests(r)
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := range first {
						if first[i] == 0 || last[i] != first[i] {
							t.Errorf("rank %d: %d requests allocated after the first round, %d after %d rounds; want the count flat",
								i, first[i], last[i], rounds)
						}
					}
				})
			}
		}
	}
}

// hostMsg is one message of a host rendezvous program: its ranks, its
// type and count, and whether each side's buffer is device memory.
type hostMsg struct {
	src, dst, typ, count int
	srcDev, dstDev       bool
}

// hostPost is one call of a rank's script: after gap, post the send or
// the receive of message msg.
type hostPost struct {
	gap  sim.Time
	msg  int
	recv bool
}

// hostProgram is a random rendezvous program on a cluster built from cfg.
type hostProgram struct {
	cfg     cluster.Config
	types   []*datatype.Datatype
	msgs    []hostMsg
	scripts [][]hostPost
}

// hostEagerLimit keeps every message of a program above the eager limit.
const hostEagerLimit = 64

// genHostProgram draws a program of concurrent rendezvous transfers
// between two or three ranks, mostly between host buffers, under the put
// or the get protocol: contiguous types (zero-copy), vector and indexed
// types (packed), from one chunk to many with a short tail. Some buffers
// are device memory, so a device receiver is matched by a get-RTS and
// host sides meet the GPU transport's pipeline. Posts are interleaved at
// random, so some RTSs arrive unexpected.
func genHostProgram(seed int64) hostProgram {
	rng := rand.New(rand.NewSource(seed))
	pg := hostProgram{cfg: cluster.Config{
		Nodes: 2 + rng.Intn(2), VbufCount: 1 + rng.Intn(3),
		MPI: mpi.Config{
			EagerLimit: hostEagerLimit, BlockSize: 256 << rng.Intn(3),
			Rendezvous: mpi.RendezvousMode(rng.Intn(2)),
		},
	}}
	for i := 0; i < 4; i++ {
		var dt *datatype.Datatype
		var err error
		switch rng.Intn(3) {
		case 0:
			dt, err = datatype.Contiguous(hostEagerLimit+1+rng.Intn(3000), datatype.Byte)
		case 1:
			w := 4 << rng.Intn(4)
			dt, err = datatype.Vector(hostEagerLimit/w+1+rng.Intn(120), w, w+rng.Intn(48), datatype.Byte)
		default:
			n := 1 + rng.Intn(20)
			lens, displs := make([]int, n), make([]int, n)
			at := rng.Intn(8)
			for j := range lens {
				lens[j] = 4 + rng.Intn(40)
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
		src := rng.Intn(pg.cfg.Nodes)
		dst := (src + 1 + rng.Intn(pg.cfg.Nodes-1)) % pg.cfg.Nodes
		m := hostMsg{
			src: src, dst: dst, typ: rng.Intn(len(pg.types)), count: 1 + rng.Intn(3),
			srcDev: rng.Intn(4) == 0, dstDev: rng.Intn(4) == 0,
		}
		for pg.types[m.typ].Size()*m.count <= hostEagerLimit {
			m.count++
		}
		pg.msgs = append(pg.msgs, m)
	}
	pg.scripts = make([][]hostPost, pg.cfg.Nodes)
	for i, m := range pg.msgs {
		for _, p := range []hostPost{{msg: i}, {msg: i, recv: true}} {
			rank := m.src
			if p.recv {
				rank = m.dst
			}
			p.gap = sim.Time(rng.Intn(4)) * sim.Microsecond
			s := pg.scripts[rank]
			at := rng.Intn(len(s) + 1)
			pg.scripts[rank] = append(s[:at], append([]hostPost{p}, s[at:]...)...)
		}
	}
	return pg
}

type hostResult struct {
	fired  []string
	events uint64
	recv   []string // each message's received buffer
	trace  string
}

// runHostProgram runs pg on a fresh cluster, with the host rendezvous
// records or, when ref is set, with the reference processes.
func runHostProgram(t *testing.T, pg hostProgram, ref bool) hostResult {
	t.Helper()
	chrome := obs.NewChromeTracer()
	cfg := pg.cfg
	cfg.Tracers = []obs.Tracer{chrome}
	cl := cluster.New(cfg)
	if ref {
		mpi.UseRefHostRendezvous(cl.World)
	}
	var res hostResult
	cl.Engine.SetTracer(func(at sim.Time, msg string) {
		if strings.HasPrefix(msg, "event ") {
			res.fired = append(res.fired, fmt.Sprintf("%v %s", at, msg))
		}
	})
	bufLen := func(m hostMsg) int { return pg.types[m.typ].LB() + pg.types[m.typ].Span(m.count) }
	alloc := func(node int, dev bool, n int) mem.Ptr {
		if dev {
			return cl.Nodes[node].Ctx.MustMalloc(n)
		}
		return cl.Nodes[node].Rank.AllocHost(n)
	}
	sendBufs, recvBufs := make([]mem.Ptr, len(pg.msgs)), make([]mem.Ptr, len(pg.msgs))
	for i, m := range pg.msgs {
		sendBufs[i] = alloc(m.src, m.srcDev, bufLen(m))
		recvBufs[i] = alloc(m.dst, m.dstDev, bufLen(m))
		mem.Fill(sendBufs[i], bufLen(m), func(j int) byte { return byte(j*7 + i + 1) })
	}
	err := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		var reqs []*mpi.Request
		for _, p := range pg.scripts[r.Rank()] {
			r.Proc().Sleep(p.gap)
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
	free := func(node int, dev bool, p mem.Ptr) {
		if !dev {
			cl.Nodes[node].Rank.FreeHost(p)
		} else if err := cl.Nodes[node].Ctx.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range pg.msgs {
		free(m.src, m.srcDev, sendBufs[i])
		free(m.dst, m.dstDev, recvBufs[i])
	}
	res.events = cl.Engine.Events()
	res.trace = chrome.JSON()
	return res
}

// TestPropHostRendezvousMatchesReference runs random rendezvous programs
// through the host rendezvous records and through the reference
// processes, and requires the same event firings, item count, received
// memory and Chrome trace.
func TestPropHostRendezvousMatchesReference(t *testing.T) {
	var put, get, zeroCopy, packed, multi, deviceGet int // runs that reach each path
	f := func(seed int64) bool {
		pg := genHostProgram(seed)
		got := runHostProgram(t, pg, false)
		want := runHostProgram(t, pg, true)
		isGet := pg.cfg.MPI.Rendezvous == mpi.RendezvousGet
		seen := map[*int]bool{}
		for _, m := range pg.msgs {
			dt := pg.types[m.typ]
			if m.srcDev && m.dstDev {
				continue // the GPU transport's pipeline alone
			}
			hostRecv := !m.dstDev
			if isGet && !m.srcDev {
				seen[&get] = true
				if m.dstDev {
					seen[&deviceGet] = true
				}
			} else {
				seen[&put] = true
			}
			if hostRecv && dt.IsContiguous() {
				seen[&zeroCopy] = true
			}
			if hostRecv && !dt.IsContiguous() {
				seen[&packed] = true
			}
			if dt.Size()*m.count > pg.cfg.MPI.BlockSize {
				seen[&multi] = true
			}
		}
		for n := range seen {
			*n++
		}
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
		case got.trace != want.trace:
			t.Errorf("seed %d: Chrome trace differs from the reference", seed)
		default:
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	for _, p := range []struct {
		name string
		n    int
	}{
		{"put", put}, {"get", get}, {"zero-copy", zeroCopy}, {"packed", packed},
		{"multi-chunk", multi}, {"device get", deviceGet},
	} {
		if p.n == 0 {
			t.Errorf("no program reached the %s path", p.name)
		}
	}
	t.Logf("runs: %d put, %d get, %d zero-copy, %d packed, %d multi-chunk, %d device get",
		put, get, zeroCopy, packed, multi, deviceGet)
}
