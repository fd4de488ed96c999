package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withinDeadline runs fn on its own goroutine and fails the test if it
// has not returned after a generous deadline, so a Shutdown that hangs
// fails the test instead of the whole test binary.
func withinDeadline(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestShutdownReleasesCarriers leaves every kind of carrier behind — a
// server blocked on an empty queue, a deadlocked process and idle
// carriers whose processes finished — in 50 engines, and checks that
// Shutdown ends every carrier goroutine before it returns.
func TestShutdownReleasesCarriers(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := New()
		q := NewQueue[int](e, "work")
		e.Spawn("server", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		never := e.NewEvent("never")
		e.Spawn("stuck", func(p *Proc) { p.Wait(never) })
		for j := 0; j < 3; j++ {
			e.Spawn("short", func(p *Proc) { p.Sleep(Nanosecond) })
		}
		var de *DeadlockError
		if err := e.Run(); !errors.As(err, &de) {
			t.Fatalf("Run = %v, want DeadlockError", err)
		}
		if len(e.idle) == 0 {
			t.Fatal("no idle carriers after the short processes finished")
		}
		if i == 0 && runtime.NumGoroutine() <= base {
			t.Fatal("blocked carriers did not show up as goroutines; the check below would be vacuous")
		}
		e.Shutdown()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after Shutdown, want at most the baseline %d", got, base)
	}
}

// TestShutdownRunsBlockedDefers checks that a body blocked at Shutdown
// unwinds through its deferred calls and never runs past the blocking
// call.
func TestShutdownRunsBlockedDefers(t *testing.T) {
	e := New()
	never := e.NewEvent("never")
	deferred, resumed := false, false
	e.Spawn("waiter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Wait(never)
		resumed = true
	})
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if deferred {
		t.Fatal("deferred call ran before Shutdown")
	}
	e.Shutdown()
	if !deferred || resumed {
		t.Errorf("after Shutdown: deferred=%v resumed=%v, want true false", deferred, resumed)
	}
}

// TestShutdownEndsRecoveringBody gives Shutdown bodies that swallow every
// panic: one returns normally after recovering, one blocks again from its
// deferred call. Both must end without hanging and without lifecycle
// output for the ended processes.
func TestShutdownEndsRecoveringBody(t *testing.T) {
	e := New()
	var lines []string
	e.SetTracer(func(_ Time, msg string) { lines = append(lines, msg) })
	never := e.NewEvent("never")
	e.Spawn("swallow", func(p *Proc) {
		defer func() { recover() }()
		p.Wait(never)
	})
	e.Spawn("reblock", func(p *Proc) {
		defer func() {
			recover()
			p.Sleep(Nanosecond)
		}()
		p.Wait(never)
	})
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	before := len(lines)
	withinDeadline(t, "Shutdown", e.Shutdown)
	if extra := lines[before:]; len(extra) > 0 {
		t.Errorf("Shutdown emitted lifecycle output: %q", extra)
	}
}

// TestCarrierReuse spawns 1000 short processes one after another, each
// spawning its successor before it returns, and checks they share two
// carriers. It then pins the allocations of one spawn-and-finish.
func TestCarrierReuse(t *testing.T) {
	e := New()
	defer e.Shutdown()
	n := 0
	var body func(p *Proc)
	body = func(p *Proc) {
		if n++; n < 1000 {
			e.Spawn("chain", body)
		}
	}
	e.Spawn("chain", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("ran %d processes, want 1000", n)
	}
	if got := len(e.carriers); got > 2 {
		t.Errorf("%d carriers for 1000 sequential processes, want at most 2", got)
	}
	short := func(p *Proc) { p.Sleep(Nanosecond) }
	spawn := func() {
		e.Spawn("short", short)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, spawn); avg > 1 {
		t.Errorf("%.1f allocs per spawn-and-finish, want at most 1 (the Proc)", avg)
	}
}

// TestShutdownAfterProcPanic checks that the carrier of a panicking
// process survives the panic: after Run re-raises it, the carrier is
// reused by the next spawn and Shutdown still returns.
func TestShutdownAfterProcPanic(t *testing.T) {
	e := New()
	never := e.NewEvent("never")
	e.Spawn("blocked", func(p *Proc) { p.Wait(never) })
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(5)
		panic("kaboom")
	})
	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Errorf("recovered %v, want kaboom", r)
			}
		}()
		_ = e.Run()
	}()
	carriers := len(e.carriers)
	ran := false
	e.Spawn("after", func(p *Proc) { ran = true })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || !ran {
		t.Fatalf("Run after panic = %v, ran=%v; want the blocked process's DeadlockError", err, ran)
	}
	if len(e.carriers) != carriers {
		t.Errorf("spawn after panic created a carrier: %d -> %d", carriers, len(e.carriers))
	}
	withinDeadline(t, "Shutdown", e.Shutdown)
}

// TestDeadlockReportFormatsReasons pins the deadlock text built from each
// process's reason and awaited event, sorted.
func TestDeadlockReportFormatsReasons(t *testing.T) {
	e := New()
	defer e.Shutdown()
	a, b := e.NewEvent("a"), e.NewEvent("b")
	e.Spawn("y", func(p *Proc) { p.Wait(b) })
	e.Spawn("x", func(p *Proc) { p.Wait(a) })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if got, want := strings.Join(de.Blocked, "|"), "x: wait a|y: wait b"; got != want {
		t.Errorf("Blocked = %q, want %q", got, want)
	}
}
