package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// serial runs fn on a new engine as the subtest "serial", the name
// these cases are reported under.
func serial(t *testing.T, fn func(t *testing.T, e *Engine)) {
	t.Run("serial", func(t *testing.T) { fn(t, New()) })
}

// TestLoneSleepTaskChainOneSwitch: a process alone in the engine that
// schedules a task and sleeps past it, over and over, is resumed once —
// to start — yet every task slot and every wake-up is still counted as
// a dispatched event.
func TestLoneSleepTaskChainOneSwitch(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		defer e.Shutdown()
		const n = 100
		done := make([]bool, n)
		e.Spawn("chain", func(p *Proc) {
			for i := 0; i < n; i++ {
				e.TaskAt(p.Now()+3, func() { done[i] = true })
				p.Sleep(5)
				if !done[i] {
					t.Errorf("task %d not done when its Sleep returned", i)
				}
			}
			p.Yield()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if s := e.Switches(); s != 1 {
			t.Errorf("Switches = %d, want 1 (the start)", s)
		}
		// Start + n tasks + n wake-ups + the yield.
		if ev := e.Events(); ev != 2*n+2 {
			t.Errorf("Events = %d, want %d", ev, 2*n+2)
		}
		if e.Now() != 5*n {
			t.Errorf("Now = %v, want %v", e.Now(), Time(5*n))
		}
	})
}

// TestRunAheadTieBlocks (a): a wake-up that ties a call or another
// process's wake-up already queued for the same instant takes the later
// seq, so the sleeper must block and run after them.
func TestRunAheadTieBlocks(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		defer e.Shutdown()
		var log []string
		e.Spawn("other", func(p *Proc) {
			p.Sleep(10)
			log = append(log, fmt.Sprintf("other@%v", p.Now()))
		})
		e.Spawn("sleeper", func(p *Proc) {
			e.CallAt(10, func() { log = append(log, fmt.Sprintf("call@%v", e.Now())) })
			p.Sleep(10)
			log = append(log, fmt.Sprintf("sleeper@%v", p.Now()))
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(log), "[other@10ns call@10ns sleeper@10ns]"; got != want {
			t.Errorf("order %s, want %s", got, want)
		}
		// Two starts and two wake-ups, each a switch.
		if s := e.Switches(); s != 4 {
			t.Errorf("Switches = %d, want 4", s)
		}
	})
}

// TestRunAheadBlockedWakeUpKeepsEntryTime: when tasks run ahead and then
// a call stands in the way, the sleeper blocks with its wake-up at the
// time computed on entry, not at the advanced clock plus the duration.
func TestRunAheadBlockedWakeUpKeepsEntryTime(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		defer e.Shutdown()
		var woke Time
		e.Spawn("sleeper", func(p *Proc) {
			e.TaskAt(5, func() {})
			e.CallAt(7, func() {})
			p.Sleep(10)
			woke = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if woke != 10 || e.Switches() != 2 {
			t.Errorf("woke at %v after %d switches, want 10ns after 2", woke, e.Switches())
		}
	})
}

// TestRunAheadStopsAtLimit (b): a Sleep past RunUntil's limit leaves its
// wake-up queued with the clock at the limit, and a later Run resumes
// the process at its own time. A Sleep ending exactly at the limit still
// runs ahead: the loop would have dispatched that wake-up too.
func TestRunAheadStopsAtLimit(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		defer e.Shutdown()
		var woke []Time
		ran := false
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(50)
			woke = append(woke, p.Now())
			e.TaskAt(p.Now()+20, func() { ran = true })
			p.Sleep(100)
			woke = append(woke, p.Now())
		})
		if err := e.RunUntil(80); err != nil {
			t.Fatal(err)
		}
		if e.Now() != 80 || fmt.Sprint(woke) != "[50ns]" || e.Switches() != 1 {
			t.Fatalf("after RunUntil(80): now %v, woke %v, switches %d; want 80ns, [50ns], 1",
				e.Now(), woke, e.Switches())
		}
		// Start and first wake-up dispatched; the task at 70 ran in the
		// loop; the wake-up at 150 is still queued.
		if ev := e.Events(); ev != 3 || !ran {
			t.Errorf("Events = %d, task ran %v; want 3, true", ev, ran)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Now() != 150 || fmt.Sprint(woke) != "[50ns 150ns]" || e.Events() != 4 {
			t.Errorf("after Run: now %v, woke %v, events %d; want 150ns, [50ns 150ns], 4",
				e.Now(), woke, e.Events())
		}
	})
}

// TestRunAheadRunsDueTasksOnly (c): tasks due at or before the wake-up
// are complete when Sleep returns, including one tied with it; a task
// due after the wake-up is not.
func TestRunAheadRunsDueTasksOnly(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		defer e.Shutdown()
		var before, tied, after bool
		e.Spawn("sleeper", func(p *Proc) {
			e.TaskAt(15, func() { after = true })
			e.TaskAt(10, func() { tied = true })
			e.TaskAt(5, func() { before = true })
			p.Sleep(10)
			if !before || !tied {
				t.Errorf("at wake-up: before %v, tied %v; want both done", before, tied)
			}
			if after {
				t.Error("task due at 15 already run at 10")
			}
			if p.Now() != 10 {
				t.Errorf("woke at %v, want 10ns", p.Now())
			}
			p.Sleep(10)
			if !after {
				t.Error("task due at 15 not done at 20")
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if s := e.Switches(); s != 1 {
			t.Errorf("Switches = %d, want 1", s)
		}
	})
}

// TestRunAheadTaskPanic (d): a task that panics while a process runs it
// ahead surfaces from Run with the task's own value, the process stays
// blocked in its Sleep as it would under the loop, and Shutdown then
// unwinds it and leaves no goroutine behind.
func TestRunAheadTaskPanic(t *testing.T) {
	serial(t, func(t *testing.T, e *Engine) {
		base := runtime.NumGoroutine()
		unwound, resumed := false, false
		e.Spawn("sleeper", func(p *Proc) {
			defer func() { unwound = true }()
			e.TaskAt(5, func() { panic("task boom") })
			p.Sleep(10)
			resumed = true
		})
		func() {
			defer func() {
				if r := recover(); r != "task boom" {
					t.Errorf("recovered %v, want task boom", r)
				}
			}()
			_ = e.Run()
			t.Error("Run returned instead of panicking")
		}()
		if unwound || resumed {
			t.Errorf("after the panic: unwound %v, resumed %v; want the sleeper still blocked", unwound, resumed)
		}
		if e.Now() != 5 {
			t.Errorf("clock at %v after the panic, want the task's slot 5ns", e.Now())
		}
		withinDeadline(t, "Shutdown", e.Shutdown)
		if !unwound || resumed {
			t.Errorf("after Shutdown: unwound %v, resumed %v; want true, false", unwound, resumed)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%d goroutines after Shutdown, want at most the baseline %d", got, base)
		}
	})
}

// TestPropRunAheadOrder: for random mixes of sleeping processes that
// schedule tasks, and call chains, every call and wake-up observes the
// clock in time order, every task due earlier is complete by then and
// none due later has run, and Events counts every item a loop-only engine
// would dispatch.
func TestPropRunAheadOrder(t *testing.T) {
	type task struct {
		due  Time
		done bool
	}
	f := func(seed uint32) bool {
		e := New()
		defer e.Shutdown()
		r := seed
		next := func(n int) Time {
			r = r*1664525 + 1013904223
			return Time(int(r>>16) % n)
		}
		var tasks []*task
		var last Time
		ok := true
		see := func() {
			now := e.Now()
			ok = ok && now >= last
			last = now
			for _, tk := range tasks {
				if tk.due < now && !tk.done || tk.due > now && tk.done {
					ok = false
				}
			}
		}
		var items uint64
		for c := 0; c < 3; c++ {
			e.CallAt(next(40), see)
			items++
		}
		for i := 0; i < 1+int(next(4)); i++ {
			steps := int(next(12))
			items += 1 + uint64(steps)
			e.Spawn("walker", func(p *Proc) {
				for s := 0; s < steps; s++ {
					for k := next(3); k > 0; k-- {
						tk := &task{due: p.Now() + next(15)}
						tasks = append(tasks, tk)
						e.TaskAt(tk.due, func() { tk.done = true })
						items++
					}
					p.Sleep(next(10))
					see()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Error(err)
			return false
		}
		return ok && e.Events() == items
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
