package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// waitersScenario queues four waiters on one event — processes and
// continuations alternating when mixed is set, processes only otherwise —
// fires it from a call that also schedules a probe and registers an
// inline callback, and returns the order everything ran in.
func waitersScenario(mixed bool) []string {
	e := New()
	defer e.Shutdown()
	ev := e.NewEvent("ev")
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%v %s", e.Now(), s)) }
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		at := Time(i)
		if mixed && i%2 == 1 {
			e.CallAt(at, func() { ev.Then(func() { note(name) }) })
			continue
		}
		e.SpawnAt(at, name, func(p *Proc) {
			p.Wait(ev)
			note(name)
		})
	}
	e.CallAt(10, func() {
		ev.OnTrigger(func() { note("inline") })
		ev.Trigger()
		e.CallAt(e.Now(), func() { note("probe") })
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestThenInterleavesWithWaiters: continuations queued with Then run in the
// slots processes waiting on the same event would have resumed in — after
// the trigger's inline callbacks, in arrival order, before anything the
// triggering call schedules next.
func TestThenInterleavesWithWaiters(t *testing.T) {
	procs, mixed := waitersScenario(false), waitersScenario(true)
	want := "10ns inline|10ns w0|10ns w1|10ns w2|10ns w3|10ns probe"
	if got := strings.Join(procs, "|"); got != want {
		t.Fatalf("processes only: %q, want %q", got, want)
	}
	if got := strings.Join(mixed, "|"); got != want {
		t.Errorf("processes and continuations: %q, want %q", got, want)
	}
}

// resourceScenario contends four holders for a capacity-1 resource — as
// processes only, or with every other holder a continuation — and returns
// the grant order, the final clock and the resource statistics.
func resourceScenario(mixed bool) (string, uint64) {
	e := New()
	defer e.Shutdown()
	r := e.NewResource("r", 1)
	var log []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("h%d", i)
		hold := Time(3 + i)
		if mixed && i%2 == 1 {
			var got func()
			got = func() {
				log = append(log, fmt.Sprintf("%v %s", e.Now(), name))
				e.CallAt(e.Now()+hold, r.Release)
			}
			e.CallAt(Time(i), func() { r.AcquireThen(got) })
			continue
		}
		e.SpawnAt(Time(i), name, func(p *Proc) {
			r.Acquire(p)
			log = append(log, fmt.Sprintf("%v %s", e.Now(), name))
			p.Sleep(hold)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return strings.Join(log, "|") + " | " + r.Stats(), e.Events()
}

// TestAcquireThenMatchesAcquire: continuations queued with AcquireThen
// take the slot in FIFO order with blocked processes, at the same
// instants, and leave acquires, maxQueue and utilization unchanged.
func TestAcquireThenMatchesAcquire(t *testing.T) {
	procs, pe := resourceScenario(false)
	mixed, me := resourceScenario(true)
	if procs != mixed {
		t.Errorf("grants differ:\nprocesses: %s\nmixed:     %s", procs, mixed)
	}
	if !strings.Contains(procs, "acquires=4 maxQueue=3") {
		t.Errorf("unexpected reference statistics: %s", procs)
	}
	// A process costs one start-up resume the continuation's CallAt
	// replaces, so the counts agree item for item.
	if pe != me {
		t.Errorf("events: processes %d, mixed %d", pe, me)
	}
}

// TestThenOnFiredEventRunsInline: like Wait on a fired event, Then runs
// its continuation at once and schedules nothing.
func TestThenOnFiredEventRunsInline(t *testing.T) {
	e := New()
	ev := e.NewEvent("ev")
	ev.Trigger()
	ran := false
	ev.Then(func() { ran = true })
	if !ran {
		t.Fatal("Then on a fired event did not run inline")
	}
	if err := e.Run(); err != nil || e.Events() != 0 {
		t.Errorf("Run = %v after %d events, want nothing scheduled", err, e.Events())
	}
}

// TestAcquireThenGrantTraceText: a continuation waiting for a resource is
// granted through the same "<resource>.grant" event a process is, so the
// tracer sees the same firings; only the process lines differ.
func TestAcquireThenGrantTraceText(t *testing.T) {
	trace := func(cont bool) string {
		e := New()
		defer e.Shutdown()
		var lines []string
		e.SetTracer(func(at Time, msg string) {
			if !strings.HasPrefix(msg, "proc ") {
				lines = append(lines, fmt.Sprintf("%v %s", at, msg))
			}
		})
		r := e.NewResource("link", 1)
		r.tryAcquire()
		if cont {
			r.AcquireThen(func() { lines = append(lines, "granted") })
		} else {
			e.Spawn("w", func(p *Proc) {
				r.Acquire(p)
				lines = append(lines, "granted")
			})
		}
		e.CallAt(5, r.Release)
		if err := e.Run(); err != nil {
			panic(err)
		}
		return strings.Join(lines, "|")
	}
	want := "5ns event link.grant: fired|granted"
	if got := trace(false); got != want {
		t.Fatalf("process waiter trace %q, want %q", got, want)
	}
	if got := trace(true); got != want {
		t.Errorf("continuation waiter trace %q, want %q", got, want)
	}
}

type thenCounter struct {
	n    int
	step func()
}

func (c *thenCounter) inc() { c.n++ }

// TestThenBoundMethodAllocatesNothing: a lone continuation is kept inline
// in the event and its call item comes from the freelist, so queuing a
// method value bound once costs no allocation.
func TestThenBoundMethodAllocatesNothing(t *testing.T) {
	e := New()
	c := &thenCounter{}
	c.step = c.inc
	const runs = 50
	evs := make([]*Event, runs+1)
	for i := range evs {
		evs[i] = e.NewEvent("ev")
	}
	i := 0
	round := func() {
		ev := evs[i]
		i++
		ev.Then(c.step)
		ev.Trigger()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, round); avg != 0 {
		t.Errorf("%.1f allocs per Then+Trigger, want 0", avg)
	}
	if c.n != runs+1 {
		t.Errorf("continuation ran %d times, want %d", c.n, runs+1)
	}
}

// TestEventReset: an Event held by value is re-armed by Reset once it has
// fired and its waiters have run — unfired, renamed, waitable and
// triggerable again — and Reset panics while a process, a continuation
// or a callback still waits on it, since they would never run.
func TestEventReset(t *testing.T) {
	e := New()
	defer e.Shutdown()
	var ev Event
	ev.Reset(e, "first")
	var got []string
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(&ev)
		got = append(got, fmt.Sprintf("%v %s", p.Now(), ev.Name()))
		ev.ResetNumbered(e, "again", 2)
		if ev.Fired() {
			t.Error("reset event still fired")
		}
		e.CallAfter(5, ev.Trigger)
		p.Wait(&ev)
		got = append(got, fmt.Sprintf("%v %s", p.Now(), ev.Name()))
	})
	e.CallAfter(3, ev.Trigger)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(got, "|"); s != "3ns first|8ns again2" {
		t.Errorf("waits woke at %q", s)
	}

	pending := map[string]func(ev *Event){
		"process": func(ev *Event) {
			e.Spawn("blocked", func(p *Proc) { p.Wait(ev) })
			var de *DeadlockError
			if err := e.RunUntil(e.Now()); !errors.As(err, &de) {
				t.Fatalf("RunUntil = %v, want the waiter blocked", err)
			}
		},
		"continuation": func(ev *Event) { ev.Then(func() {}) },
		"callback":     func(ev *Event) { ev.OnTrigger(func() {}) },
	}
	for what, wait := range pending {
		var ev Event
		ev.Reset(e, "pending")
		wait(&ev)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset with a %s waiting did not panic", what)
				}
			}()
			ev.Reset(e, "reused")
		}()
	}
}

// queueScenario has four consumers take from one queue — processes
// only, or with every other consumer a continuation — while a producer
// puts an item every 2 ns, one of them while a non-waiting TryGet takes
// it first, and returns the trace of firings and takes and the item
// count.
func queueScenario(mixed bool) (string, uint64) {
	e := New()
	defer e.Shutdown()
	q := NewQueueNumbered[int](e, "rank", 1, ".fin")
	var log []string
	e.SetTracer(func(at Time, msg string) {
		if !strings.HasPrefix(msg, "proc ") {
			log = append(log, fmt.Sprintf("%v %s", at, msg))
		}
	})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("c%d", i)
		took := func(v int) { log = append(log, fmt.Sprintf("%v %s took %d", e.Now(), name, v)) }
		if mixed && i%2 == 1 {
			e.CallAt(Time(i), func() { q.GetThen(took) })
			continue
		}
		e.SpawnAt(Time(i), name, func(p *Proc) { took(q.Get(p)) })
	}
	for i := 0; i < 5; i++ {
		v := i
		e.CallAt(Time(10+2*i), func() {
			q.Put(v)
			if v == 1 {
				q.TryGet() // a woken waiter finds the queue empty and waits again
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return strings.Join(log, "|"), e.Events()
}

// TestQueueGetThenMatchesGet: continuations queued with GetThen wait in
// one FIFO with blocked processes, take their items in the slots those
// processes would resume in, after the same "<queue>.get" firings, and
// wait again at the back when another taker emptied the queue first.
func TestQueueGetThenMatchesGet(t *testing.T) {
	procs, pe := queueScenario(false)
	mixed, me := queueScenario(true)
	if procs != mixed {
		t.Errorf("takes differ:\nprocesses: %s\nmixed:     %s", procs, mixed)
	}
	if !strings.Contains(procs, "10ns event rank1.fin.get: fired|10ns c0 took 0") {
		t.Errorf("unexpected reference trace: %s", procs)
	}
	if pe != me {
		t.Errorf("events: processes %d, mixed %d", pe, me)
	}
}

// TestContendedResourceAllocatesNothing: once a resource has woken as
// many waiters as it ever queues at once, a grant reuses a fired grant
// event and the FIFO's storage, so contention allocates nothing.
func TestContendedResourceAllocatesNothing(t *testing.T) {
	e := New()
	r := e.NewResource("link", 1)
	c := &thenCounter{}
	c.step = c.inc
	rounds := 0
	round := func() {
		rounds++
		r.tryAcquire()
		r.AcquireThen(c.step)
		r.AcquireThen(c.step)
		r.Release()
		r.Release()
		r.Release()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("%.1f allocs per contended round, want 0", avg)
	}
	if c.n != 2*rounds {
		t.Errorf("grants ran %d times in %d rounds, want 2 a round", c.n, rounds)
	}
}
