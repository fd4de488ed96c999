package sim

import (
	"fmt"
	"strconv"
)

// Event is a one-shot condition that processes can wait on and that any
// execution context (a process or an engine callback) can trigger.
//
// Triggering is idempotent: the first Trigger fires the event, waking all
// current waiters at the current virtual time and running registered
// callbacks inline; later Trigger calls are no-ops. Waiting on an already
// fired event returns immediately without blocking.
//
// A waiter is either a process blocked in Wait or a continuation queued
// with Then; the two share one arrival order.
//
// Events are usually made by NewEvent. A record that is reused message
// after message — a recycled MPI request, a pooled staging record — can
// hold its events by value instead and re-arm them with Reset, so reuse
// allocates no event.
type Event struct {
	e       *Engine
	name    label
	fired   bool
	firedAt Time
	first   waiter   // first waiter, kept inline so a lone Wait or Then allocates nothing
	waiters []waiter // later waiters, in arrival order
	cb      func()   // first callback, inline like first
	cbs     []func() // later callbacks, in registration order
}

// waiter is one party an event wakes when it fires: a process to resume,
// or a continuation to call.
type waiter struct {
	p  *Proc
	fn func()
}

// wake schedules the waiter at the current instant. A continuation takes
// the slot — the next seq — that resuming a process would take.
func (w waiter) wake(e *Engine) {
	if w.p != nil {
		w.p.scheduleResume(e.now)
	} else {
		e.CallAt(e.now, w.fn)
	}
}

// label is a process, event or queue name kept as a prefix, an optional
// decimal number and a suffix, so a per-message name costs nothing until
// a tracer or a deadlock report reads it.
type label struct {
	prefix string
	n      int
	num    bool // append n in decimal
	suffix string
}

func (l label) String() string {
	if !l.num {
		return l.prefix + l.suffix
	}
	return l.prefix + strconv.Itoa(l.n) + l.suffix
}

// NewEvent creates a named, unfired event.
func (e *Engine) NewEvent(name string) *Event {
	return &Event{e: e, name: label{prefix: name}}
}

// Reset arms ev, an Event held by value, as an unfired event named name
// on e: the first use of a zero Event and every reuse after it has
// fired. Resetting an event that still has waiters or callbacks panics,
// since they would never run.
func (ev *Event) Reset(e *Engine, name string) { ev.reset(e, label{prefix: name}) }

// ResetNumbered is Reset for an event named prefix followed by n in
// decimal.
func (ev *Event) ResetNumbered(e *Engine, prefix string, n int) {
	ev.reset(e, label{prefix: prefix, n: n, num: true})
}

// ResetNumberedSuffix is Reset for an event named prefix, then n in
// decimal, then suffix.
func (ev *Event) ResetNumberedSuffix(e *Engine, prefix string, n int, suffix string) {
	ev.reset(e, label{prefix: prefix, n: n, num: true, suffix: suffix})
}

func (ev *Event) reset(e *Engine, name label) {
	if ev.hasWaiter() || ev.cb != nil {
		panic("sim: reset of event " + ev.name.String() + " with waiters or callbacks pending")
	}
	*ev = Event{e: e, name: name}
}

// Name returns the event name given at creation.
func (ev *Event) Name() string { return ev.name.String() }

func (ev *Event) waitName() string { return ev.name.String() }

// Fired reports whether the event has been triggered.
func (ev *Event) Fired() bool { return ev.fired }

// FiredAt returns the virtual time of the trigger. It panics if the event
// has not fired; check Fired first.
func (ev *Event) FiredAt() Time {
	if !ev.fired {
		panic("sim: FiredAt on unfired event " + ev.name.String())
	}
	return ev.firedAt
}

// Trigger fires the event. Waiters are resumed (processes) or scheduled
// (continuations) at the current instant in the order they began waiting;
// callbacks run inline, in registration order, before Trigger returns.
// Triggering an already-fired event is a no-op.
func (ev *Event) Trigger() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.firedAt = ev.e.now
	ev.e.fired(ev.name)
	if ev.hasWaiter() {
		ev.first.wake(ev.e)
		ev.first = waiter{}
	}
	for _, w := range ev.waiters {
		w.wake(ev.e)
	}
	ev.waiters = nil
	cb, cbs := ev.cb, ev.cbs
	ev.cb, ev.cbs = nil, nil
	if cb != nil {
		cb()
	}
	for _, fn := range cbs {
		fn()
	}
}

// OnTrigger registers fn to run when the event fires. If the event has
// already fired, fn runs immediately.
func (ev *Event) OnTrigger(fn func()) {
	switch {
	case ev.fired:
		fn()
	case ev.cb == nil:
		ev.cb = fn
	default:
		ev.cbs = append(ev.cbs, fn)
	}
}

// Then queues fn to run in engine context when the event fires, as its
// own scheduled item: at the trigger instant, in arrival order with
// processes waiting on the event, so fn runs in exactly the (time, seq)
// slot where a process that called Wait instead would resume. OnTrigger
// callbacks, by contrast, run inline inside Trigger. If the event has
// already fired, fn runs at once, just as Wait returns at once.
//
// Hardware models use Then in place of a process blocked in Wait: the
// continuation replaces the process's resume item one for one, so the
// event order is the same and no coroutine switch is needed.
func (ev *Event) Then(fn func()) {
	if ev.fired {
		fn()
		return
	}
	ev.add(waiter{fn: fn})
}

// Wait blocks the process until the event fires. It returns immediately if
// the event has already fired.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	ev.add(waiter{p: p})
	p.block("wait", ev)
}

// add appends a waiter in arrival order.
func (ev *Event) add(w waiter) {
	if !ev.hasWaiter() {
		ev.first = w
	} else {
		ev.waiters = append(ev.waiters, w)
	}
}

// hasWaiter reports whether anything waits on the event.
func (ev *Event) hasWaiter() bool { return ev.first.p != nil || ev.first.fn != nil }

// WaitAll blocks until every listed event has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// WaitAny blocks until at least one listed event has fired and returns the
// index of the first fired event in argument order. It panics on an empty
// list.
//
// A process always waits on exactly one wakeup source, so WaitAny waits on
// a one-shot aggregate event wired to the inputs with OnTrigger. The
// aggregate's Trigger is idempotent, so later firings of other inputs are
// harmless. The callbacks registered on inputs that never fire persist for
// the inputs' lifetime; callers looping over long-lived events should wait
// on a Queue or Resource instead.
func (p *Proc) WaitAny(evs ...*Event) int {
	if len(evs) == 0 {
		panic("sim: WaitAny with no events")
	}
	for i, ev := range evs {
		if ev.fired {
			return i
		}
	}
	any := p.e.NewEvent("anyOf")
	for _, ev := range evs {
		ev.OnTrigger(any.Trigger)
	}
	p.Wait(any)
	for i, ev := range evs {
		if ev.fired {
			return i
		}
	}
	panic("sim: WaitAny woke with no fired event")
}

func (ev *Event) String() string {
	if ev.fired {
		return fmt.Sprintf("event(%s fired@%v)", ev.name, ev.firedAt)
	}
	n := len(ev.waiters)
	if ev.hasWaiter() {
		n++
	}
	return fmt.Sprintf("event(%s pending, %d waiters)", ev.name, n)
}
