package sim

import (
	"errors"
	"sync"
	"testing"
)

// workload is a representative simulation: a service loop fed by a
// queue, a contended resource, event fan-in, and processes spawning
// processes. It returns the finish time and dispatched-event count so
// concurrent runs can be checked for determinism.
//
// Every handoff in here crosses the coroutine switch between the engine
// goroutine (Run) and a process carrier (running the Spawn closure), which
// is exactly the boundary the race detector must see happens-before edges
// on.
func workload(t *testing.T) (Time, uint64) {
	t.Helper()
	e := New()
	type job struct{ id int }
	q := NewQueue[job](e, "jobs")
	res := e.NewResource("worker", 2)
	done := make([]*Event, 8)

	e.Spawn("service", func(p *Proc) {
		for {
			j := q.Get(p)
			p.Sleep(Time(j.id+1) * Microsecond)
			done[j.id].Trigger()
		}
	})

	for i := 0; i < len(done); i++ {
		done[i] = e.NewEvent("done")
		i := i
		e.Spawn("producer", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(10 * Nanosecond)
			res.Release()
			p.Sleep(0)
			q.Put(job{id: i})
		})
	}

	e.Spawn("collector", func(p *Proc) {
		p.WaitAll(done...)
		// Spawning from process context hands the baton back through the
		// engine before the child's first instruction runs.
		child := e.NewEvent("child")
		e.Spawn("late", func(p *Proc) {
			p.Sleep(Microsecond)
			child.Trigger()
		})
		p.Wait(child)
	})

	e.CallAfter(5*Microsecond, func() {
		e.Spawn("callback-spawned", func(p *Proc) { p.Sleep(Nanosecond) })
	})

	// The service loop ends blocked on its empty queue.
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || len(de.Blocked) != 1 {
		t.Errorf("workload: Run = %v, want the service loop's DeadlockError", err)
	}
	now, events := e.Now(), e.Events()
	e.Shutdown() // ends the still-blocked service loop and releases its carrier
	return now, events
}

// TestRaceConcurrentEngines runs many independent engines simultaneously
// from separate OS-level goroutines. Engines share no state, so under
// `go test -race` this must be silent; it also checks the cooperative
// scheduler stays deterministic regardless of goroutine interleaving.
func TestRaceConcurrentEngines(t *testing.T) {
	const parallel = 8
	times := make([]Time, parallel)
	events := make([]uint64, parallel)
	var wg sync.WaitGroup
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			times[g], events[g] = workload(t)
		}(g)
	}
	wg.Wait()
	for g := 1; g < parallel; g++ {
		if times[g] != times[0] || events[g] != events[0] {
			t.Errorf("run %d diverged: %v/%d events vs %v/%d",
				g, times[g], events[g], times[0], events[0])
		}
	}
}

// TestRaceHandoffStress bounces control across many process carriers in
// one engine: a ring of processes each relaying a token through a queue.
// The engine goroutine and every carrier take turns on the shared
// scheduler state, so any missing synchronization in the next/yield
// handoff shows up under -race.
func TestRaceHandoffStress(t *testing.T) {
	e := New()
	const ring, rounds = 64, 50
	queues := make([]*Queue[int], ring)
	for i := range queues {
		queues[i] = NewQueue[int](e, "ring")
	}
	var total int
	for i := 0; i < ring; i++ {
		i := i
		e.Spawn("relay", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				v := queues[i].Get(p)
				p.Sleep(Nanosecond)
				if i == ring-1 {
					total += v
				} else {
					queues[i+1].Put(v + 1)
				}
			}
		})
	}
	e.Spawn("injector", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			queues[0].Put(0)
			p.Sleep(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if want := rounds * (ring - 1); total != want {
		t.Errorf("ring total = %d, want %d", total, want)
	}
}
