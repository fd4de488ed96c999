package cuda

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// refStream is the reference a Stream is checked against: the stream as a
// worker process that takes ops from a queue and runs each one by
// blocking in Acquire, Sleep and Wait. Stream must produce the same
// simulation — the same events at the same instants in the same order,
// with one item fewer per stream: the worker's start-up.
type refStream struct {
	c    *Ctx
	name string
	q    *sim.Queue[*op]
}

func newRefStream(c *Ctx) *refStream {
	s := &refStream{c: c, name: fmt.Sprintf("gpu%d.stream%d", c.dev.ID(), c.nstream)}
	c.nstream++
	s.q = sim.NewQueue[*op](c.e, s.name+".ops")
	c.e.Spawn(s.name, s.run)
	return s
}

func (s *refStream) enqueue(o *op) *sim.Event {
	o.done = s.c.e.NewEvent(s.name + ".op")
	s.q.Put(o)
	return o.done
}

func (s *refStream) run(p *sim.Proc) {
	d, m := s.c.dev, s.c.Model()
	for {
		o := s.q.Get(p)
		switch {
		case o.waitOn != nil:
			p.Wait(o.waitOn)
		case o.isMarker:
		case o.isKernel:
			cells, ns := o.kernCells, o.kernNsCell
			if o.memsetBytes > 0 {
				cells, ns = o.memsetBytes, 1e9/m.DevBandwidth
				if !o.memsetDst.IsDevice() {
					ns = 1e9 / m.HostBandwidth
				}
			}
			refExec(p, d.Engine(gpu.EngineKernel), m.KernelCost(cells, ns), o.kernBody)
		default:
			dir := gpu.DirOf(o.dst, o.src)
			var eng *sim.Resource
			if dir != gpu.H2H {
				eng = d.Engine(gpu.EngineFor(dir))
			}
			o := o
			refExec(p, eng, m.CopyCost(dir, o.shape), func() {
				mem.Copy2D(o.dst, o.shape.DPitch, o.src, o.shape.SPitch, o.shape.Width, o.shape.Height)
			})
		}
		o.done.Trigger()
	}
}

// refExec occupies eng (nil: no engine) for cost from process p, with
// work due at the completion instant.
func refExec(p *sim.Proc, eng *sim.Resource, cost sim.Time, work func()) {
	if eng != nil {
		eng.Acquire(p)
	}
	if work != nil {
		p.Engine().CallAt(p.Now()+cost, work)
	}
	p.Sleep(cost)
	if eng != nil {
		eng.Release()
	}
}

// streamAPI issues stream ops on stream index s, through the real API or
// the reference. Markers are named by the id of the step recording them.
type streamAPI interface {
	copy2D(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height, s int) *sim.Event
	kernel(p *sim.Proc, s, cells int, body func()) *sim.Event
	memset(p *sim.Proc, dst mem.Ptr, b byte, n, s int) *sim.Event
	record(p *sim.Proc, s, id int) *sim.Event
	waitEvent(p *sim.Proc, s, id int)
}

type realAPI struct {
	c     *Ctx
	ss    []*Stream
	marks map[int]*Event
	early int // waits issued before their marker completed
}

func (r *realAPI) copy2D(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height, s int) *sim.Event {
	return r.c.Memcpy2DAsync(p, dst, dpitch, src, spitch, width, height, r.ss[s])
}

func (r *realAPI) kernel(p *sim.Proc, s, cells int, body func()) *sim.Event {
	return r.c.LaunchKernel(p, r.ss[s], cells, 2, body)
}

func (r *realAPI) memset(p *sim.Proc, dst mem.Ptr, b byte, n, s int) *sim.Event {
	return r.c.MemsetAsync(p, dst, b, n, r.ss[s])
}

func (r *realAPI) record(p *sim.Proc, s, id int) *sim.Event {
	ev := r.c.NewEvent()
	ev.Record(p, r.ss[s])
	r.marks[id] = ev
	return ev.ev
}

func (r *realAPI) waitEvent(p *sim.Proc, s, id int) {
	if !r.marks[id].Query() {
		r.early++
	}
	r.c.StreamWaitEvent(p, r.ss[s], r.marks[id])
}

type refAPI struct {
	c     *Ctx
	ss    []*refStream
	marks map[int]*sim.Event
}

func (r *refAPI) copy2D(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height, s int) *sim.Event {
	r.c.issue(p)
	return r.ss[s].enqueue(&op{dst: dst, src: src, shape: gpu.CopyShape{Width: width, Height: height, DPitch: dpitch, SPitch: spitch}, chunk: -1})
}

func (r *refAPI) kernel(p *sim.Proc, s, cells int, body func()) *sim.Event {
	r.c.issue(p)
	return r.ss[s].enqueue(&op{isKernel: true, kernCells: cells, kernNsCell: 2, kernBody: body, chunk: -1})
}

func (r *refAPI) memset(p *sim.Proc, dst mem.Ptr, b byte, n, s int) *sim.Event {
	r.c.issue(p)
	return r.ss[s].enqueue(&op{isKernel: true, kernBody: func() { mem.Fill(dst, n, func(int) byte { return b }) },
		memsetBytes: n, memsetDst: dst, chunk: -1})
}

func (r *refAPI) record(p *sim.Proc, s, id int) *sim.Event {
	r.c.issue(p)
	ev := r.ss[s].enqueue(&op{isMarker: true, chunk: -1})
	r.marks[id] = ev
	return ev
}

func (r *refAPI) waitEvent(p *sim.Proc, s, id int) {
	r.c.issue(p)
	r.ss[s].enqueue(&op{waitOn: r.marks[id], chunk: -1})
}

type stepKind uint8

const (
	stepH2D stepKind = iota
	stepD2H
	stepD2D
	stepH2H
	stepKernel
	stepMemset
	stepRecord
	stepWait
	numStepKinds
)

// step is one op of a random stream program. Each step writes only its
// own destination slot and reads only the read-only source halves, so
// no two steps of a program touch the same bytes.
type step struct {
	kind   stepKind
	stream int
	// issuer: a process index (>= 0), issueAtTime (engine context at
	// time at), or issueOnDone (engine context, inside the completion of
	// the previous step's op).
	issuer int
	at     sim.Time
	gap    sim.Time // process issuers: sleep before issuing
	block  bool     // process issuers: wait for the op to complete
	width  int
	height int
	pitch  int
	mark   int // stepWait: id of an earlier stepRecord of the same process
}

const (
	issueAtTime = -1
	issueOnDone = -2
	numIssuers  = 2
	slotBytes   = 1024 // room for height <= 16 rows at pitch <= 64
)

// genProgram draws a program of 2-3 streams from seed.
func genProgram(seed int64) (int, []step) {
	rng := rand.New(rand.NewSource(seed))
	nstreams := 2 + rng.Intn(2)
	prog := make([]step, 10+rng.Intn(30))
	records := map[int][]int{} // process -> ids of its stepRecord steps
	for i := range prog {
		st := step{
			kind:   stepKind(rng.Intn(int(numStepKinds))),
			stream: rng.Intn(nstreams),
			width:  1 + rng.Intn(32),
			height: 1 + rng.Intn(16),
		}
		st.pitch = st.width + rng.Intn(64-st.width+1)
		switch r := rng.Intn(10); {
		case r < 5:
			st.issuer = rng.Intn(numIssuers)
			st.gap = sim.Time(rng.Intn(8)) * sim.Microsecond
			st.block = rng.Intn(6) == 0
		case r < 8 || i == 0:
			st.issuer = issueAtTime
			st.at = sim.Time(rng.Intn(60)) * sim.Microsecond
		default:
			st.issuer = issueOnDone
		}
		if st.kind == stepWait {
			ids := records[st.issuer]
			if st.issuer < 0 || len(ids) == 0 {
				st.kind = stepRecord
			} else {
				// Mostly the latest marker, right away, so the wait
				// often reaches the head of its stream before the
				// marker completes.
				st.mark = ids[len(ids)-1]
				if rng.Intn(3) == 0 {
					st.mark = ids[rng.Intn(len(ids))]
				} else {
					st.gap = 0
				}
				// A wait on its own stream's marker never stalls.
				st.stream = (prog[st.mark].stream + 1 + rng.Intn(nstreams-1)) % nstreams
			}
		}
		if st.kind == stepRecord && st.issuer >= 0 {
			records[st.issuer] = append(records[st.issuer], i)
		}
		if st.issuer == issueOnDone && (prog[i-1].kind == stepWait || prog[i-1].kind == stepRecord) {
			// Waits return no event to chain on; keep chains to device
			// work so every chained step is issued.
			st.issuer = issueAtTime
		}
		prog[i] = st
	}
	return nstreams, prog
}

// firedLog records every event firing except the reference worker's
// queue wake-ups, which a Stream has no counterpart of.
type firedLog []string

func (l *firedLog) trace(t sim.Time, msg string) {
	if name, ok := firedName(msg); ok && !strings.HasSuffix(name, ".ops.get") {
		*l = append(*l, fmt.Sprintf("%v %s", t, name))
	}
}

// firedName returns the event named by an engine tracer line reporting a
// firing, "event <name>: fired".
func firedName(msg string) (string, bool) {
	name, ok := strings.CutPrefix(msg, "event ")
	if !ok {
		return "", false
	}
	return strings.CutSuffix(name, ": fired")
}

type programResult struct {
	fired  []string
	early  int // real runs: waits issued before their marker completed
	events uint64
	dev    []byte
	host   []byte
}

// runProgram runs prog on real streams or on reference streams.
func runProgram(t *testing.T, nstreams int, prog []step, ref bool) programResult {
	e := sim.New()
	defer e.Shutdown()
	var fired firedLog
	e.SetTracer(fired.trace)
	dev := gpu.New(e, 0, gpu.Config{MemBytes: 1 << 20})
	c := NewCtx(e, dev)
	half := len(prog) * slotBytes
	host := mem.NewHostSpace("host", 2*half).Base()
	dbuf := dev.MustMalloc(2 * half)
	mem.Fill(host, half, func(i int) byte { return byte(i * 7) })
	mem.Fill(dbuf, half, func(i int) byte { return byte(i*13 + 1) })

	var api streamAPI
	var ra *realAPI
	if ref {
		r := &refAPI{c: c, marks: map[int]*sim.Event{}}
		for i := 0; i < nstreams; i++ {
			r.ss = append(r.ss, newRefStream(c))
		}
		api = r
	} else {
		ra = &realAPI{c: c, marks: map[int]*Event{}}
		for i := 0; i < nstreams; i++ {
			ra.ss = append(ra.ss, c.NewStream())
		}
		api = ra
	}

	// issue submits step i from p (nil: engine context) and chains the
	// next step onto its completion if that step asks for it.
	var issue func(p *sim.Proc, i int) *sim.Event
	issue = func(p *sim.Proc, i int) *sim.Event {
		st := prog[i]
		src, dst := host, host.Add(half+i*slotBytes)
		switch st.kind {
		case stepH2D:
			dst = dbuf.Add(half + i*slotBytes)
		case stepD2H:
			src = dbuf
		case stepD2D, stepKernel:
			src, dst = dbuf, dbuf.Add(half+i*slotBytes)
		case stepMemset:
			if i%2 == 0 {
				dst = dbuf.Add(half + i*slotBytes)
			}
		}
		var ev *sim.Event
		switch st.kind {
		case stepKernel:
			n, d := st.width*st.height, dst
			ev = api.kernel(p, st.stream, n, func() {
				mem.Copy2D(d, n, src, n, n, 1)
			})
		case stepMemset:
			ev = api.memset(p, dst, byte(i), st.width*st.height, st.stream)
		case stepRecord:
			ev = api.record(p, st.stream, i)
		case stepWait:
			api.waitEvent(p, st.stream, st.mark)
		default:
			ev = api.copy2D(p, dst, st.pitch, src, st.pitch, st.width, st.height, st.stream)
		}
		if i+1 < len(prog) && prog[i+1].issuer == issueOnDone {
			ev.OnTrigger(func() { issue(nil, i+1) })
		}
		return ev
	}
	for k := 0; k < numIssuers; k++ {
		k := k
		e.Spawn(fmt.Sprintf("app%d", k), func(p *sim.Proc) {
			for i, st := range prog {
				if st.issuer != k {
					continue
				}
				p.Sleep(st.gap)
				if ev := issue(p, i); st.block && ev != nil {
					p.Wait(ev)
				}
			}
		})
	}
	for i, st := range prog {
		if st.issuer == issueAtTime {
			i := i
			e.CallAt(st.at, func() { issue(nil, i) })
		}
	}

	err := e.Run()
	var de *sim.DeadlockError
	if ref {
		// The reference workers end blocked on their empty queues.
		if !errors.As(err, &de) || len(de.Blocked) != nstreams {
			t.Fatalf("reference run: %v, want %d idle workers", err, nstreams)
		}
		for _, b := range de.Blocked {
			if !strings.HasSuffix(b, ".ops.get") {
				t.Fatalf("reference run: blocked %q", b)
			}
		}
	} else if err != nil {
		t.Fatal(err)
	}
	res := programResult{
		fired:  fired,
		events: e.Events(),
		dev:    append([]byte(nil), dbuf.Add(half).Bytes(half)...),
		host:   append([]byte(nil), host.Add(half).Bytes(half)...),
	}
	if ra != nil {
		res.early = ra.early
	}
	return res
}

// TestPropStreamMatchesReference runs random programs — H2D, D2H, D2D and
// H2H copies, kernels, memsets, markers and cross-stream waits on 2-3
// contending streams, issued from processes, from engine calls and from
// inside op completions — on Streams and on reference worker processes,
// and requires the same event firings at the same instants in the same
// order, the same memory, and exactly one dispatched item fewer per
// stream.
func TestPropStreamMatchesReference(t *testing.T) {
	early, grants := 0, 0
	f := func(seed int64) bool {
		nstreams, prog := genProgram(seed)
		got := runProgram(t, nstreams, prog, false)
		want := runProgram(t, nstreams, prog, true)
		early += got.early
		for _, l := range got.fired {
			if strings.HasSuffix(l, ".grant") {
				grants++
			}
		}
		if len(want.fired) < len(prog) {
			t.Errorf("seed %d: reference fired only %d events for %d steps", seed, len(want.fired), len(prog))
			return false
		}
		if g, w := strings.Join(got.fired, "\n"), strings.Join(want.fired, "\n"); g != w {
			for i := range got.fired {
				if i >= len(want.fired) || got.fired[i] != want.fired[i] {
					t.Errorf("seed %d: firing %d: stream %q, reference %q", seed, i, got.fired[i], want.fired[min(i, len(want.fired)-1)])
					break
				}
			}
			t.Errorf("seed %d: %d firings, reference %d", seed, len(got.fired), len(want.fired))
			return false
		}
		if got.events+uint64(nstreams) != want.events {
			t.Errorf("seed %d: %d events, reference %d with %d streams", seed, got.events, want.events, nstreams)
			return false
		}
		if string(got.dev) != string(want.dev) || string(got.host) != string(want.host) {
			t.Errorf("seed %d: memory differs from the reference", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	// The programs must reach the paths under test: engines handed over
	// to queued ops, and stream waits that stall.
	if grants == 0 || early == 0 {
		t.Errorf("programs exercised %d engine grants and %d stalling waits, want both", grants, early)
	}
	t.Logf("%d engine grants, %d stalling waits", grants, early)
}
