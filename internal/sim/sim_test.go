package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Errorf("Millis = %v, want 2.5", got)
	}
	if got := (3 * Second).Seconds(); got != 3 {
		t.Errorf("Seconds = %v, want 3", got)
	}
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{4 * Second, "4s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationOf(t *testing.T) {
	// 1 GiB/s-ish: 1e9 bytes/s → 1000 bytes takes 1 µs.
	if got := DurationOf(1000, 1e9); got != Microsecond {
		t.Errorf("DurationOf = %v, want 1us", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("DurationOf with zero bandwidth did not panic")
		}
	}()
	DurationOf(1, 0)
}

func TestCallOrdering(t *testing.T) {
	e := New()
	var got []int
	e.CallAt(30, func() { got = append(got, 3) })
	e.CallAt(10, func() { got = append(got, 1) })
	e.CallAt(20, func() { got = append(got, 2) })
	e.CallAt(10, func() { got = append(got, 11) }) // same time: FIFO by schedule order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	e := New()
	e.CallAt(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.CallAt(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, fmt.Sprintf("a0@%v", p.Now()))
		p.Sleep(10)
		trace = append(trace, fmt.Sprintf("a1@%v", p.Now()))
		p.Sleep(5)
		trace = append(trace, fmt.Sprintf("a2@%v", p.Now()))
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(12)
		trace = append(trace, fmt.Sprintf("b@%v", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0@0ns", "a1@10ns", "b@12ns", "a2@15ns"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

// TestWakeUpTieOrder: a wake-up tied with a call or another process's
// wake-up already queued for the same instant takes the later seq, so
// the sleeper runs after them. Sleep(0) ties at the current instant.
func TestWakeUpTieOrder(t *testing.T) {
	for _, d := range []Time{0, 10} {
		e := New()
		defer e.Shutdown()
		var log []string
		e.Spawn("other", func(p *Proc) {
			p.Sleep(d)
			log = append(log, fmt.Sprintf("other@%v", p.Now()))
		})
		e.Spawn("sleeper", func(p *Proc) {
			e.CallAt(d, func() { log = append(log, fmt.Sprintf("call@%v", e.Now())) })
			p.Sleep(d)
			log = append(log, fmt.Sprintf("sleeper@%v", p.Now()))
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(log), fmt.Sprintf("[other@%[1]v call@%[1]v sleeper@%[1]v]", d); got != want {
			t.Errorf("Sleep(%v): order %s, want %s", d, got, want)
		}
		// Two starts and two wake-ups, each a switch.
		if s := e.Switches(); s != 4 {
			t.Errorf("Sleep(%v): Switches = %d, want 4", d, s)
		}
	}
}

func TestEventTriggerWakesWaiters(t *testing.T) {
	e := New()
	ev := e.NewEvent("go")
	var woke []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	e.CallAt(42, func() { ev.Trigger() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p1@42ns", "p2@42ns", "p3@42ns"}
	if !reflect.DeepEqual(woke, want) {
		t.Errorf("woke = %v, want %v", woke, want)
	}
	if !ev.Fired() || ev.FiredAt() != 42 {
		t.Errorf("event state: fired=%v at=%v", ev.Fired(), ev.FiredAt())
	}
}

func TestEventTriggerIdempotent(t *testing.T) {
	e := New()
	ev := e.NewEvent("x")
	n := 0
	ev.OnTrigger(func() { n++ })
	e.CallAt(1, func() { ev.Trigger(); ev.Trigger() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := New()
	ev := e.NewEvent("pre")
	ev.Trigger()
	done := false
	e.Spawn("p", func(p *Proc) {
		p.Wait(ev)
		if p.Now() != 0 {
			t.Errorf("wait on fired event advanced time to %v", p.Now())
		}
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("process did not complete")
	}
}

func TestOnTriggerAfterFireRunsImmediately(t *testing.T) {
	e := New()
	ev := e.NewEvent("x")
	ev.Trigger()
	ran := false
	ev.OnTrigger(func() { ran = true })
	if !ran {
		t.Error("OnTrigger on fired event did not run inline")
	}
}

func TestWaitAny(t *testing.T) {
	e := New()
	a, b := e.NewEvent("a"), e.NewEvent("b")
	var idx int
	var at Time
	e.Spawn("w", func(p *Proc) {
		idx = p.WaitAny(a, b)
		at = p.Now()
	})
	e.CallAt(7, func() { b.Trigger() })
	e.CallAt(9, func() { a.Trigger() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 || at != 7 {
		t.Errorf("WaitAny -> (%d,@%v), want (1,@7)", idx, at)
	}
}

func TestWaitAnyAlreadyFired(t *testing.T) {
	e := New()
	a, b := e.NewEvent("a"), e.NewEvent("b")
	b.Trigger()
	var idx int
	e.Spawn("w", func(p *Proc) { idx = p.WaitAny(a, b) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("idx = %d, want 1", idx)
	}
}

func TestWaitAllBlocksUntilLast(t *testing.T) {
	e := New()
	a, b := e.NewEvent("a"), e.NewEvent("b")
	var at Time
	e.Spawn("w", func(p *Proc) {
		p.WaitAll(a, b)
		at = p.Now()
	})
	e.CallAt(3, func() { b.Trigger() })
	e.CallAt(8, func() { a.Trigger() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 8 {
		t.Errorf("WaitAll returned at %v, want 8", at)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	ev := e.NewEvent("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "stuck") {
		t.Errorf("blocked = %v", de.Blocked)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, tm := range []Time{5, 10, 15} {
		tm := tm
		e.CallAt(tm, func() { fired = append(fired, tm) })
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []Time{5, 10}) {
		t.Errorf("fired = %v, want [5 10]", fired)
	}
	if e.Now() != 10 {
		t.Errorf("now = %v, want 10", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []Time{5, 10, 15}) {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunUntilAdvancesClockPastQueue(t *testing.T) {
	e := New()
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100 {
		t.Errorf("now = %v, want 100", e.Now())
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := New()
	r := e.NewResource("mutex", 1)
	var order []string
	worker := func(name string, hold Time) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		}
	}
	e.Spawn("a", worker("a", 10))
	e.Spawn("b", worker("b", 10))
	e.Spawn("c", worker("c", 10))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 30 {
		t.Errorf("now = %v, want 30", e.Now())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := New()
	r := e.NewResource("dual", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 20}
	if !reflect.DeepEqual(finish, want) {
		t.Errorf("finish = %v, want %v", finish, want)
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	// The releasing process must not re-acquire ahead of queued waiters.
	e := New()
	r := e.NewResource("res", 1)
	var got []string
	e.Spawn("first", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(5)
		r.Release()
		r.Acquire(p) // should queue behind "second"
		got = append(got, "first-again")
		r.Release()
	})
	e.SpawnAt(1, "second", func(p *Proc) {
		r.Acquire(p)
		got = append(got, "second")
		p.Sleep(1)
		r.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"second", "first-again"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got = %v, want %v", got, want)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	e.Spawn("p", func(p *Proc) {
		if !r.tryAcquire() {
			t.Error("first tryAcquire failed")
		}
		if r.tryAcquire() {
			t.Error("second tryAcquire succeeded on full resource")
		}
		r.Release()
		if !r.tryAcquire() {
			t.Error("tryAcquire after release failed")
		}
		r.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	e.Spawn("p", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(50)
		r.Release()
		p.Sleep(50)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
	if !strings.Contains(r.Stats(), "acquires=1") {
		t.Errorf("stats = %q", r.Stats())
	}
}

func TestQueueFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		e.CallAt(Time(i*10), func() { q.Put(i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("got = %v", got)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	sum := 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			sum += q.Get(p)
		})
	}
	e.CallAt(1, func() { q.Put(1); q.Put(2); q.Put(3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Errorf("sum = %d, want 6", sum)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := New()
	q := NewQueue[string](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	q.Put("x")
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Errorf("TryGet = (%q,%v)", v, ok)
	}
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestSpawnAt(t *testing.T) {
	e := New()
	var at Time = -1
	e.SpawnAt(25, "late", func(p *Proc) { at = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 25 {
		t.Errorf("started at %v, want 25", at)
	}
}

func TestTracer(t *testing.T) {
	e := New()
	var lines []string
	e.SetTracer(func(tm Time, msg string) { lines = append(lines, msg) })
	e.Spawn("p", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Errorf("trace lines = %v", lines)
	}
}

func TestEventString(t *testing.T) {
	e := New()
	ev := e.NewEvent("x")
	if !strings.Contains(ev.String(), "pending") {
		t.Errorf("String = %q", ev.String())
	}
	ev.Trigger()
	if !strings.Contains(ev.String(), "fired") {
		t.Errorf("String = %q", ev.String())
	}
}

// Property: for any set of scheduled callbacks, execution order is sorted by
// (time, insertion order) — events never fire out of order and never at a
// decreasing clock.
func TestPropEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		type rec struct {
			t   Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, tm := i, Time(d)
			e.CallAt(tm, func() { got = append(got, rec{e.Now(), i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		want := make([]rec, len(delays))
		for i, d := range delays {
			want[i] = rec{Time(d), i}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if got[i].t != Time(delays[got[i].seq]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for random mixes of sleeping processes that schedule calls,
// and independent calls, every call and wake-up observes the clock in
// time order, every marker call due earlier has run by then and none due
// later has, and Events counts every start, wake-up and call.
func TestPropSleepCallOrder(t *testing.T) {
	type marker struct {
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
		var markers []*marker
		var last Time
		ok := true
		see := func() {
			now := e.Now()
			ok = ok && now >= last
			last = now
			for _, m := range markers {
				if m.due < now && !m.done || m.due > now && m.done {
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
						m := &marker{due: p.Now() + next(15)}
						markers = append(markers, m)
						e.CallAt(m.due, func() { m.done = true })
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

// Property: simulation is deterministic — the same randomized workload run
// twice produces the identical completion trace.
func TestPropDeterminism(t *testing.T) {
	runOnce := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		r := e.NewResource("r", 1+rng.Intn(3))
		q := NewQueue[int](e, "q")
		var trace []string
		nworkers := 2 + rng.Intn(4)
		nitems := 5 + rng.Intn(10)
		for w := 0; w < nworkers; w++ {
			w := w
			hold := Time(1 + rng.Intn(20))
			e.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				for {
					v, ok := q.TryGet()
					if !ok {
						v = q.Get(p)
					}
					if v < 0 {
						return
					}
					r.Acquire(p)
					p.Sleep(hold)
					r.Release()
					trace = append(trace, fmt.Sprintf("w%d:%d@%v", w, v, p.Now()))
				}
			})
		}
		for i := 0; i < nitems; i++ {
			i := i
			e.CallAt(Time(rng.Intn(50)), func() { q.Put(i) })
		}
		e.CallAt(10000, func() {
			for w := 0; w < nworkers; w++ {
				q.Put(-1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	f := func(seed int64) bool {
		a := runOnce(seed)
		b := runOnce(seed)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a resource never exceeds its capacity and serves waiters FIFO.
func TestPropResourceCapacity(t *testing.T) {
	f := func(capRaw uint8, holdsRaw []uint8) bool {
		capacity := 1 + int(capRaw%4)
		if len(holdsRaw) == 0 {
			return true
		}
		if len(holdsRaw) > 25 {
			holdsRaw = holdsRaw[:25]
		}
		e := New()
		r := e.NewResource("r", capacity)
		inUse, maxUse := 0, 0
		for i, h := range holdsRaw {
			hold := Time(1 + int(h%50))
			e.SpawnAt(Time(i%7), fmt.Sprintf("w%d", i), func(p *Proc) {
				r.Acquire(p)
				inUse++
				if inUse > maxUse {
					maxUse = inUse
				}
				p.Sleep(hold)
				inUse--
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return maxUse <= capacity && r.InUse() == 0 && r.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	r := e.NewResource("r", 2)
	for i := 0; i < b.N; i++ {
		e.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(5)
			r.Release()
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestNonDaemonStillDeadlocks: a process stuck on an event that can no
// longer fire is reported even beside a server blocked on its queue.
func TestNonDaemonStillDeadlocks(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "work")
	e.Spawn("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	ev := e.NewEvent("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	de, ok := e.Run().(*DeadlockError)
	if !ok {
		t.Fatal("expected DeadlockError for the stuck process")
	}
	if got, want := strings.Join(de.Blocked, "|"), "server: wait work.get|stuck: wait never"; got != want {
		t.Errorf("Blocked = %q, want %q", got, want)
	}
}

// TestProcPanicPropagatesToRun: a panic in a process body or in a
// scheduled call is raised from Run with the clock at the panicking
// item's slot. A sleeper due later stays blocked in its Sleep, and
// Shutdown then unwinds it and leaves no goroutine behind.
func TestProcPanicPropagatesToRun(t *testing.T) {
	for _, c := range []struct {
		name string
		boom func(e *Engine)
	}{
		{"process", func(e *Engine) {
			e.Spawn("boom", func(p *Proc) {
				p.Sleep(5)
				panic("kaboom")
			})
		}},
		{"call", func(e *Engine) { e.CallAt(5, func() { panic("kaboom") }) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New()
			unwound, resumed := false, false
			e.Spawn("sleeper", func(p *Proc) {
				defer func() { unwound = true }()
				p.Sleep(10)
				resumed = true
			})
			c.boom(e)
			func() {
				defer func() {
					if r := recover(); r != "kaboom" {
						t.Errorf("recovered %v, want kaboom", r)
					}
				}()
				_ = e.Run()
				t.Error("Run returned instead of panicking")
			}()
			if unwound || resumed {
				t.Errorf("after the panic: unwound %v, resumed %v; want the sleeper still blocked", unwound, resumed)
			}
			if e.Now() != 5 {
				t.Errorf("clock at %v after the panic, want the panicking slot 5ns", e.Now())
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
}

// TestPropHeapPopsInSortOrder drives the dispatch heap directly with
// random pushes interleaved with pops — times drawn from a small range so
// many tie, seqs unique as the engine assigns them — and requires the
// items to come out in the order of a sort by (t, seq).
func TestPropHeapPopsInSortOrder(t *testing.T) {
	f := func(times []uint8, popAfter []bool) bool {
		var h itemHeap
		var pending, popped, want []*item
		pop := func() {
			popped = append(popped, h.pop())
			sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
			want, pending = append(want, pending[0]), pending[1:]
		}
		for i, tm := range times {
			it := &item{t: Time(tm % 8), seq: uint64(len(times) - i)}
			h.push(it)
			pending = append(pending, it)
			if i < len(popAfter) && popAfter[i] {
				pop()
			}
		}
		for len(h) > 0 {
			pop()
		}
		if len(pending) != 0 || len(popped) != len(times) {
			return false
		}
		for i := range popped {
			if popped[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
