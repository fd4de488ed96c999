// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing scheduled items in
// non-decreasing time order. Two kinds of items exist: callbacks, which
// run to completion inside the engine's goroutine, and process
// resumptions, which hand control to a cooperative process.
//
// Processes are coroutines wrapped by Proc: each runs on a pooled carrier
// (an iter.Pull coroutine, see coro.go) that the engine resumes directly.
// Exactly one process (or the engine itself) executes at any instant;
// control is transferred explicitly when a process blocks in Sleep, Wait,
// or a resource/queue operation, and comes back only when the dispatch
// loop pops the process's wake-up. This cooperative single-executor
// discipline makes the whole simulation race-free and fully
// deterministic: the same program produces the same event trace on every
// run.
//
// There is one engine, Engine (created by New). It runs every item on the
// goroutine that calls Run.
//
// Software — the MPI ranks — is written as processes. Hardware models
// (GPU engines, CUDA streams, HCA transfers, reads and scatter/gather
// units), the GPU transport's eager staging and rendezvous pipeline and
// mpi's host-memory rendezvous are state machines that advance by
// continuations instead: CallAt in place of Sleep, Event.Then in place of
// Wait, Resource.AcquireThen in place of Acquire, Queue.GetThen in place
// of Get.
// Each continuation is scheduled at exactly the (time, seq) slot where
// the wake-up of the equivalent process would have been — the next seq at
// the moment the process would have blocked — so replacing a process by
// continuations changes neither the event order nor virtual time: only
// the coroutine switches go, along with the start-up item of a server
// process that existed just to wait for work. A state machine reused
// message after message holds its events by value and re-arms them with
// Event.Reset.
//
// All simulated components in this repository are built from the
// primitives in this package: Proc, Event, Resource and Queue.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. It is intentionally distinct from time.Duration so
// simulated and wall-clock time cannot be confused.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// DurationOf converts a byte count and a bandwidth in bytes/second into the
// virtual time the transfer occupies. Bandwidths of zero or below panic:
// a cost model with a zero bandwidth is a configuration bug, not a runtime
// condition to tolerate.
func DurationOf(bytes int, bytesPerSec float64) Time {
	if bytesPerSec <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return Time(float64(bytes) / bytesPerSec * float64(Second))
}

// itemKind discriminates the schedulable item types.
type itemKind uint8

const (
	kindCall itemKind = iota
	kindResume
)

// item is one entry in the event heap. Items are recycled through the
// engine's freelist.
type item struct {
	t    Time
	seq  uint64 // tie-breaker: FIFO among items at the same instant
	kind itemKind
	fn   func()
	proc *Proc
}

// itemHeap is a binary min-heap of items ordered by (t, seq). (t, seq) is
// a total order — seq is unique — so the pop order is fixed whatever the
// heap's shape. It is typed rather than a container/heap, so a push or a
// pop calls no interface method.
type itemHeap []*item

// before reports whether a dispatches before b.
func (a *item) before(b *item) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// push inserts it, sifting it up from the bottom.
func (h *itemHeap) push(it *item) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !it.before(s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = it
	*h = s
}

// pop removes and returns the first item; the heap must not be empty.
// The last item fills the root's hole and sifts down.
func (h *itemHeap) pop() *item {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// Engine is the simulation scheduler: a virtual clock, a heap of items
// ordered by (time, seq), and the carriers that run processes. The zero
// value is not usable; create engines with New.
type Engine struct {
	now      Time
	seq      uint64
	heap     itemHeap
	free     []*item    // recycled items, engine-goroutine only
	carriers []*carrier // every carrier created, in creation order
	idle     []*carrier // carriers with no process, reused LIFO by SpawnAt
	nevents  uint64     // dispatched item count, for stats and runaway guards
	switches uint64     // process resumes performed by the dispatch loop

	tracer func(t Time, msg string)
}

// New creates an empty engine at virtual time zero.
func New() *Engine { return &Engine{} }

// Shutdown ends every process still blocked in the engine (servers
// waiting for work, processes stuck on unfired events) and releases every
// carrier. A blocked carrier otherwise lives for the lifetime of the Go
// program and keeps everything it references — entire simulated memories
// — reachable, so long-running harnesses that build many engines must
// call Shutdown when each simulation finishes.
//
// Each carrier is stopped in creation order: the blocked operation in its
// body panics with a private sentinel, the body's deferred calls run, and
// the carrier's goroutine exits before stop returns. No lifecycle output
// (tracer lines) is emitted for the ended processes.
//
// Shutdown must only be called while the engine is not executing (i.e.
// after Run/RunUntil has returned). It is idempotent. The engine must not
// be used afterwards.
func (e *Engine) Shutdown() {
	for _, c := range e.carriers {
		c.stop()
	}
	e.carriers, e.idle = nil, nil
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of scheduled items dispatched so far.
func (e *Engine) Events() uint64 { return e.nevents }

// Switches returns the number of process resumes the dispatch loop has
// performed: one per process start and one per wake-up from a block.
func (e *Engine) Switches() uint64 { return e.switches }

// SetTracer installs a trace sink invoked for process lifecycle events.
// Pass nil to disable tracing.
func (e *Engine) SetTracer(fn func(t Time, msg string)) { e.tracer = fn }

// trace emits "<kind> <name>: <what>". The name is formatted only when a
// tracer is installed, so the untraced path allocates nothing.
func (e *Engine) trace(kind string, name label, what string) {
	if e.tracer != nil {
		e.tracer(e.now, kind+" "+name.String()+": "+what)
	}
}

// fired reports an event firing to the tracer.
func (e *Engine) fired(name label) {
	e.trace("event", name, "fired")
}

// newItem takes an item from the freelist, or allocates the first time.
// Only the engine goroutine (dispatch loop, or a process holding the
// baton) touches the freelist, so no locking is needed.
func (e *Engine) newItem() *item {
	if n := len(e.free); n > 0 {
		it := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return it
	}
	return &item{}
}

// recycle returns a dispatched item to the freelist. Callers must be done
// with every field.
func (e *Engine) recycle(it *item) {
	it.fn = nil
	it.proc = nil
	e.free = append(e.free, it)
}

// schedule inserts an item at absolute time t.
func (e *Engine) schedule(t Time, it *item) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	it.t = t
	it.seq = e.seq
	e.seq++
	e.heap.push(it)
}

// CallAt schedules fn to run in engine context at absolute time t.
// fn must not block; it may schedule further items, trigger events and
// spawn processes.
func (e *Engine) CallAt(t Time, fn func()) {
	it := e.newItem()
	it.kind = kindCall
	it.fn = fn
	e.schedule(t, it)
}

// CallAfter schedules fn to run d after the current time.
func (e *Engine) CallAfter(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.CallAt(e.now+d, fn)
}

// DeadlockError reports that the event queue drained while processes were
// still blocked on events that can no longer fire.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: reason" for each stuck process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %v", d.At, len(d.Blocked), d.Blocked)
}

// Run dispatches items until the queue is empty. It returns nil when the
// simulation drained cleanly (every spawned process finished), and a
// *DeadlockError when processes remain blocked with no pending items.
func (e *Engine) Run() error {
	return e.run(-1)
}

// RunUntil dispatches items with time ≤ limit, leaving later items queued.
// The clock is advanced to limit even if the queue drains earlier.
func (e *Engine) RunUntil(limit Time) error {
	err := e.run(limit)
	if err == nil && e.now < limit {
		e.now = limit
	}
	return err
}

func (e *Engine) run(limit Time) error {
	for len(e.heap) > 0 {
		if limit >= 0 && e.heap[0].t > limit {
			return nil
		}
		it := e.heap.pop()
		e.now = it.t
		e.nevents++
		switch it.kind {
		case kindCall:
			fn := it.fn
			e.recycle(it)
			fn()
		case kindResume:
			p := it.proc
			e.recycle(it)
			e.switches++
			e.runProc(p)
		}
	}
	var msgs []string
	for _, c := range e.carriers {
		if p := c.p; p != nil && p.why != "" {
			msg := p.name.String() + ": " + p.why
			if p.on != nil {
				msg += " " + p.on.waitName()
			}
			msgs = append(msgs, msg)
		}
	}
	if len(msgs) > 0 {
		sort.Strings(msgs)
		return &DeadlockError{At: e.now, Blocked: msgs}
	}
	return nil
}

// runProc switches to p's carrier and returns when p blocks or finishes.
// A panic inside the process is re-raised here, in the Run caller's
// goroutine, so it is observable and recoverable like any ordinary panic.
func (e *Engine) runProc(p *Proc) {
	if p.done {
		panic("sim: resuming finished process " + p.name.String())
	}
	p.c.next()
	if p.panicked != nil {
		pv := p.panicked
		p.panicked = nil
		panic(pv)
	}
}

// Proc is a cooperative simulated process. Procs are created with Spawn and
// must only call blocking operations (Sleep, Wait, Resource.Acquire, ...)
// from their own body while it is running.
type Proc struct {
	e        *Engine
	name     label
	fn       func(p *Proc)
	c        *carrier // the coroutine running fn
	done     bool
	panicked interface{} // panic value captured from the process body

	// Deadlock diagnostics, written by every block: a static reason and,
	// for "wait", what is awaited. Formatted only when Run reports.
	why string
	on  waitable
}

// waitable is what a blocked process can wait on: an Event, or a Queue's
// Get. Its name is built only for a deadlock report.
type waitable interface{ waitName() string }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name.String() }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Spawn creates a process executing fn and schedules it to start at the
// current time (after already-queued items at this instant).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process starting at absolute time t. The process
// runs on an idle carrier if one exists.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: label{prefix: name}, fn: fn, c: e.carrier()}
	p.c.p = p
	p.scheduleResume(t)
	return p
}

// scheduleResume queues a wake-up for p at absolute time t.
func (p *Proc) scheduleResume(t Time) {
	it := p.e.newItem()
	it.kind = kindResume
	it.proc = p
	p.e.schedule(t, it)
}

// Sleep blocks the process for duration d of virtual time. Sleep(0) lets
// every item already queued for the current instant run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.scheduleResume(p.e.now + d)
	p.block("sleep", nil)
}
