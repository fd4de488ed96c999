package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Kinds of step of a blocking-call program.
const (
	stepPair     = iota // a sends to b, b receives: Send and Recv
	stepExchange        // a and b Sendrecv with each other
	stepHalf            // Comm.Sendrecv with one side ProcNull: a sends, b receives
	stepSelf            // a sends to itself, then receives it
	stepNull            // a communicates with ProcNull
	stepBarrier         // every rank
	stepComm            // a sends to b over the world Comm: Comm.Send and Comm.Recv
	stepColl            // every rank, rooted at a: one of the collectives below
	numSteps
)

// Collectives of a stepColl, by its variant.
const (
	collBcast = iota
	collReduce
	collGather
	collScatter
	collAllgather
	collAlltoall
	numColls
)

var collNames = [numColls]string{"Bcast", "Reduce", "Gather", "Scatter", "Allgather", "Alltoall"}

// callStep is one step of a blocking-call program: count elements of
// types[typ], host or device buffers on each end, and the time each end
// sleeps before its calls (a late receiver finds its message queued).
// In a collective, rank a's buffers are host or device by hostA, every
// other rank's by hostB.
type callStep struct {
	kind, a, b, typ, count, variant int
	hostA, hostB                    bool
	gapA, gapB                      sim.Time
}

// callProgram is a random program of blocking calls.
type callProgram struct {
	cfg   cluster.Config
	types []*datatype.Datatype
	steps []callStep
}

// callEagerLimit puts some messages of a program above the eager limit.
const callEagerLimit = 1 << 10

// genCallProgram draws a program of blocking calls between two or three
// ranks: Send/Recv pairs over the Rank and the Comm, Sendrecv exchanges,
// Comm.Sendrecv with a ProcNull side, self-sends, calls on ProcNull,
// barriers and the other collectives from a random root, over empty,
// contiguous and vector messages, eager and rendezvous, host and device,
// under the put or the get protocol. Every rank runs its steps in the
// program's order, so the program cannot deadlock.
func genCallProgram(seed int64) callProgram {
	rng := rand.New(rand.NewSource(seed))
	pg := callProgram{cfg: cluster.Config{
		Nodes: 2 + rng.Intn(2), VbufCount: 1 + rng.Intn(3),
		MPI: mpi.Config{
			EagerLimit: callEagerLimit, BlockSize: 512 << rng.Intn(2),
			Rendezvous: mpi.RendezvousMode(rng.Intn(2)),
		},
	}}
	for i := 0; i < 3; i++ {
		var dt *datatype.Datatype
		var err error
		if rng.Intn(2) == 0 {
			dt, err = datatype.Contiguous(1+rng.Intn(2000), datatype.Byte)
		} else {
			w := 4 << rng.Intn(3)
			dt, err = datatype.Vector(1+rng.Intn(150), w, w+rng.Intn(40), datatype.Byte)
		}
		if err != nil {
			panic(err)
		}
		dt.MustCommit()
		pg.types = append(pg.types, dt)
	}
	for i := 3 + rng.Intn(10); i > 0; i-- {
		st := callStep{
			kind: rng.Intn(numSteps), a: rng.Intn(pg.cfg.Nodes), typ: rng.Intn(len(pg.types)),
			count: rng.Intn(3), variant: rng.Intn(numColls),
			hostA: rng.Intn(2) == 0, hostB: rng.Intn(2) == 0,
			gapA: sim.Time(rng.Intn(3)) * 20 * sim.Microsecond, gapB: sim.Time(rng.Intn(3)) * 20 * sim.Microsecond,
		}
		st.b = (st.a + 1 + rng.Intn(pg.cfg.Nodes-1)) % pg.cfg.Nodes
		if st.kind == stepColl && st.variant == collReduce {
			st.hostA, st.hostB = true, true // Reduce takes host buffers
		}
		pg.steps = append(pg.steps, st)
	}
	return pg
}

type callResult struct {
	fired    []string
	events   uint64
	switches uint64
	mem      []string // every rank's buffers, in step order
	trace    string
}

// runCallProgram runs pg on a fresh cluster, with the folded blocking
// calls or, when ref is set, with the two-resume reference.
func runCallProgram(t *testing.T, pg callProgram, ref bool) callResult {
	t.Helper()
	chrome := obs.NewChromeTracer()
	cfg := pg.cfg
	cfg.Tracers = []obs.Tracer{chrome}
	cl := cluster.New(cfg)
	if ref {
		mpi.UseTwoResumeCalls(cl.World)
	}
	var res callResult
	cl.Engine.SetTracer(func(at sim.Time, msg string) {
		if strings.HasPrefix(msg, "event ") {
			res.fired = append(res.fired, fmt.Sprintf("%v %s", at, msg))
		}
	})
	// Each step has a send and a receive buffer on every rank, room for
	// a block per rank in a collective. A Reduce sends float64 values.
	block := func(st callStep) int { return pg.types[st.typ].Span(max(st.count, 1)) }
	size := func(st callStep) int { return len(cl.Nodes)*block(st) + reduceBytes }
	type bufs struct{ send, recv mem.Ptr }
	all := make([][]bufs, len(pg.steps))
	for i, st := range pg.steps {
		n := size(st)
		all[i] = make([]bufs, len(cl.Nodes))
		for node := range cl.Nodes {
			alloc := cl.Nodes[node].Ctx.MustMalloc
			if (node == st.a && st.hostA) || (node != st.a && st.hostB) {
				alloc = cl.Nodes[node].Rank.AllocHost
			}
			b := bufs{alloc(n), alloc(n)}
			mem.Fill(b.send, n, func(j int) byte { return byte(j*(5+2*node) + i + 1) })
			if st.kind == stepColl && st.variant == collReduce {
				f := b.send.Bytes(reduceBytes)
				for k := 0; k < reduceBytes/8; k++ {
					binary.LittleEndian.PutUint64(f[8*k:], math.Float64bits(float64(k*(node+1))+0.5))
				}
			}
			all[i][node] = b
		}
	}
	err := cl.Run(func(n *cluster.Node) {
		r, me := n.Rank, n.Rank.Rank()
		comm := r.Comm()
		for i, st := range pg.steps {
			dt, b := pg.types[st.typ], all[i][me]
			switch {
			case st.kind == stepBarrier:
				r.Proc().Sleep(st.gapA)
				r.Barrier()
			case st.kind == stepColl:
				r.Proc().Sleep(st.gapA)
				runColl(r, st, dt, b.send, b.recv, block(st))
			case me == st.a:
				r.Proc().Sleep(st.gapA)
				switch st.kind {
				case stepPair:
					r.Send(b.send, st.count, dt, st.b, i)
				case stepComm:
					comm.Send(b.send, st.count, dt, st.b, i)
				case stepExchange:
					r.Sendrecv(b.send, st.count, dt, st.b, i, b.recv, st.count, dt, st.b, i)
				case stepHalf:
					comm.Sendrecv(b.send, st.count, dt, st.b, i, b.recv, st.count, dt, mpi.ProcNull, i)
				case stepSelf:
					if st.variant%2 == 0 {
						r.Send(b.send, st.count, dt, me, i)
						r.Recv(b.recv, st.count, dt, me, i)
					} else {
						r.Sendrecv(b.send, st.count, dt, me, i, b.recv, st.count, dt, me, i)
					}
				case stepNull:
					switch st.variant % 5 {
					case 0:
						r.Send(b.send, st.count, dt, mpi.ProcNull, i)
					case 1:
						r.Recv(b.recv, st.count, dt, mpi.ProcNull, i)
					case 2:
						comm.Send(b.send, st.count, dt, mpi.ProcNull, i)
					case 3:
						comm.Recv(b.recv, st.count, dt, mpi.ProcNull, i)
					default:
						comm.Sendrecv(b.send, st.count, dt, mpi.ProcNull, i, b.recv, st.count, dt, mpi.ProcNull, i)
					}
				}
			case me == st.b:
				r.Proc().Sleep(st.gapB)
				switch st.kind {
				case stepPair:
					r.Recv(b.recv, st.count, dt, st.a, i)
				case stepComm:
					comm.Recv(b.recv, st.count, dt, st.a, i)
				case stepExchange:
					r.Sendrecv(b.send, st.count, dt, st.a, i, b.recv, st.count, dt, st.a, i)
				case stepHalf:
					comm.Sendrecv(b.send, st.count, dt, mpi.ProcNull, i, b.recv, st.count, dt, st.a, i)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("ref=%v: %v", ref, err)
	}
	for i, st := range pg.steps {
		for _, b := range all[i] {
			res.mem = append(res.mem, string(b.send.Bytes(size(st))), string(b.recv.Bytes(size(st))))
		}
	}
	res.events, res.switches = cl.Engine.Events(), cl.Engine.Switches()
	res.trace = chrome.JSON()
	return res
}

// reduceBytes is room for the float64 values a Reduce step sends: up to
// 1+8*2 of them.
const reduceBytes = 8 * 17

// runColl runs a collective step on rank r, rooted at the step's rank a:
// count elements of dt per rank, a block apart in the buffers, or for a
// Reduce 1+8*count float64 values.
func runColl(r *mpi.Rank, st callStep, dt *datatype.Datatype, send, recv mem.Ptr, block int) {
	comm := r.Comm()
	switch st.variant {
	case collBcast:
		r.Bcast(send, st.count, dt, st.a)
	case collReduce:
		r.Reduce(send, recv, 1+8*st.count, mpi.OpSum, st.a)
	case collGather:
		r.Gather(send, st.count, dt, recv, st.a)
	case collScatter:
		comm.Scatter(send, st.count, dt, recv, st.a)
	case collAllgather:
		comm.Allgather(send, st.count, dt, recv)
	case collAlltoall:
		comm.Alltoall(send, st.count, dt, recv)
	}
}

// TestPropBlockingCallsMatchTwoResumes runs random programs of blocking
// calls with each call resuming its rank once, and with the two-resume
// process form, and requires the same event firings, item count,
// received memory and Chrome trace, with no more resumes, and fewer over
// all the programs. (A program whose every call is on ProcNull or a
// host self-send folds none.)
func TestPropBlockingCallsMatchTwoResumes(t *testing.T) {
	seen := map[string]int{}
	var switches, refSwitches uint64
	f := func(seed int64) bool {
		pg := genCallProgram(seed)
		got := runCallProgram(t, pg, false)
		want := runCallProgram(t, pg, true)
		switches, refSwitches = switches+got.switches, refSwitches+want.switches
		for _, st := range pg.steps {
			size := pg.types[st.typ].Size() * st.count
			switch {
			case st.kind == stepNull:
				seen["ProcNull"]++
			case st.kind == stepSelf && st.hostA:
				seen["host self-send"]++
			case st.kind == stepHalf:
				seen["half-null Sendrecv"]++
			case st.kind == stepBarrier:
				seen["barrier"]++
			case st.kind == stepColl:
				seen[collNames[st.variant]]++
			case st.kind == stepComm && size > 0:
				seen["Comm Send/Recv"]++
			case size == 0 && st.gapB > st.gapA:
				seen["late empty receive"]++
			case size > callEagerLimit:
				seen["rendezvous"]++
			case st.hostA:
				seen["host eager send"]++
			}
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
		case strings.Join(got.mem, "") != strings.Join(want.mem, ""):
			t.Errorf("seed %d: memory differs from the reference", seed)
		case got.trace != want.trace:
			t.Errorf("seed %d: Chrome trace differs from the reference", seed)
		case got.switches > want.switches:
			t.Errorf("seed %d: %d rank resumes, reference %d", seed, got.switches, want.switches)
		default:
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	for _, c := range append([]string{"ProcNull", "host self-send", "half-null Sendrecv", "barrier", "Comm Send/Recv",
		"late empty receive", "rendezvous", "host eager send"}, collNames[:]...) {
		if seen[c] == 0 {
			t.Errorf("no program reached a %s", c)
		}
	}
	if switches >= refSwitches {
		t.Errorf("the programs resumed their ranks %d times, the reference %d: no call was folded", switches, refSwitches)
	}
	t.Logf("steps reached: %v; %d rank resumes, reference %d", seen, switches, refSwitches)
}
