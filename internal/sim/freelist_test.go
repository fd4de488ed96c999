package sim

import (
	"errors"
	"strings"
	"testing"
)

// serial runs fn on a new engine as the subtest "serial", the name
// TestEngineSteadyStateAllocs is reported under.
func serial(t *testing.T, fn func(t *testing.T, e *Engine)) {
	t.Run("serial", func(t *testing.T) { fn(t, New()) })
}

// TestEngineSteadyStateAllocs pins the item freelist: once an engine has
// run a warmup batch, further event scheduling must recycle items rather
// than allocate. The budget covers only the test's own closures — a
// thousand events through a freelist-less heap would show up as a
// thousand allocations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		defer e.Shutdown()
		run := func() {
			n := 0
			var tick func()
			tick = func() {
				if n++; n < 1000 {
					e.CallAfter(Nanosecond, tick)
				}
			}
			e.CallAfter(Nanosecond, tick)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warmup: populate the freelist
		if avg := testing.AllocsPerRun(5, run); avg > 8 {
			t.Errorf("%.1f allocs per 1000-event run after warmup, want the freelist to hold it near 0", avg)
		}
	})
}

// TestFreelistRecyclesAcrossKinds drives calls and process resumptions
// through one engine, each chained so only a handful of items are
// outstanding at any instant, and checks the free stack stays bounded by
// that peak — not by the 500 items scheduled in all.
func TestFreelistRecyclesAcrossKinds(t *testing.T) {
	e := New()
	defer e.Shutdown()
	total := 0
	var call func()
	call = func() {
		if total++; total%3 == 0 && total < 300 {
			e.CallAt(e.Now()+Nanosecond, func() {})
		}
		if total < 300 {
			e.CallAfter(Nanosecond, call)
		}
	}
	e.CallAfter(Nanosecond, call)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Nanosecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 300 {
		t.Fatalf("ran %d chained callbacks, want 300", total)
	}
	if got := len(e.free); got == 0 || got > 8 {
		t.Errorf("freelist holds %d items after run; want the handful that were ever outstanding at once", got)
	}
}

// TestQueueLockstepAllocs pins the queue's storage reuse: a queue that is
// put to and drained in lockstep keeps its backing array, so once warm a
// Put/TryGet pair allocates nothing.
func TestQueueLockstepAllocs(t *testing.T) {
	e := New()
	defer e.Shutdown()
	q := NewQueue[int](e, "q")
	q.Put(1)
	q.TryGet()
	if avg := testing.AllocsPerRun(100, func() {
		q.Put(1)
		q.TryGet()
	}); avg != 0 {
		t.Errorf("%.2f allocs per lockstep Put/TryGet, want 0", avg)
	}
}

// TestBlockingWaitsAllocateNothing pins the event-free waits: a process
// blocking in Queue.Get is queued on the queue itself, and a lone waiter on
// an event is kept inline, so once the engine is warm neither wait
// allocates. Only the fresh event itself is counted.
func TestBlockingWaitsAllocateNothing(t *testing.T) {
	e := New()
	defer e.Shutdown()
	q := NewQueue[int](e, "q")
	var ev *Event
	e.Spawn("consumer", func(p *Proc) {
		for {
			q.Get(p)
			p.Wait(ev)
		}
	})
	// The consumer ends every round blocked in Get. A far-future item
	// keeps each round's RunUntil from draining the queue, so no round
	// builds a deadlock report for it.
	e.CallAt(Time(1)<<62, func() {})
	round := func() {
		ev = e.NewEvent("ev")
		e.CallAfter(Nanosecond, func() { q.Put(1) })
		e.CallAfter(2*Nanosecond, ev.Trigger)
		if err := e.RunUntil(e.Now() + 2*Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the item freelist and the queue's storage
	if avg := testing.AllocsPerRun(50, round); avg > 3 {
		t.Errorf("%.1f allocs per blocking Get+Wait round, want only the round's event and closures", avg)
	}
}

// TestQueueWaitTraceText pins that a blocking Get, though it allocates no
// event, still reports its wakeup as the firing of "<queue>.get" to the
// tracer, and a deadlock as "wait <queue>.get".
func TestQueueWaitTraceText(t *testing.T) {
	e := New()
	defer e.Shutdown()
	q := NewQueue[int](e, "mbox")
	var lines []string
	e.SetTracer(func(_ Time, msg string) { lines = append(lines, msg) })
	e.Spawn("consumer", func(p *Proc) {
		q.Get(p)
		q.Get(p)
	})
	e.CallAfter(Nanosecond, func() { q.Put(1) })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if got, want := strings.Join(de.Blocked, "|"), "consumer: wait mbox.get"; got != want {
		t.Errorf("Blocked = %q, want %q", got, want)
	}
	if got, want := strings.Join(lines, "|"), "proc consumer: start|event mbox.get: fired"; got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
}
