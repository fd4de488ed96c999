package sim

import (
	"runtime"
	"sync"
)

// ParallelEngine is the worker-pool engine: dispatch, processes, events
// and resources keep the exact cooperative single-executor discipline of
// the SerialEngine, but items scheduled with TaskAt — pure host-memory
// work such as DMA payload copies and pack/unpack kernel bodies — start
// on a GOMAXPROCS-sized pool the moment they are scheduled and are joined
// (WaitGroup barrier) when the dispatch loop reaches their (time, seq)
// slot. Scheduling decisions, clock advancement, tracer/hook output and
// therefore every trace byte are identical to the serial engine; only the
// wall-clock placement of the memory work moves.
//
// The safety obligation is structural: a task's footprint must not be
// touched by anything scheduled before the task's slot. Every TaskAt
// conversion site in this repository schedules the task and then sleeps
// the modeled duration, with readers sequenced behind events that fire at
// or after the slot — and `go test -race` verifies the claim empirically.
type ParallelEngine struct {
	engineCore

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*item // FIFO of launched, unstarted tasks
	stopped bool
	workers int
}

// NewParallel creates an empty parallel engine at virtual time zero with
// one pool worker per available CPU.
func NewParallel() *ParallelEngine {
	e := &ParallelEngine{}
	e.engineCore.init(e)
	e.cond = sync.NewCond(&e.mu)
	e.launch = e.enqueue
	e.workers = runtime.GOMAXPROCS(0)
	if e.workers < 1 {
		e.workers = 1
	}
	for i := 0; i < e.workers; i++ {
		e.goros.Add(1)
		//lint:ignore detrand pool workers only execute barrier-joined TaskAt bodies: pure memory work with no engine calls and no observable output, joined at a fixed (time, seq) slot, so scheduling order cannot leak into the simulation
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *ParallelEngine) Workers() int { return e.workers }

// enqueue hands a freshly scheduled task to the pool. Called only from the
// engine goroutine (the launch hook inside TaskAt).
func (e *ParallelEngine) enqueue(it *item) {
	e.mu.Lock()
	e.pending = append(e.pending, it)
	e.mu.Unlock()
	e.cond.Signal()
}

// worker drains the pending queue until Shutdown. Tasks run in FIFO pickup
// order across workers; completion order is irrelevant because each task
// is joined at its own slot.
func (e *ParallelEngine) worker() {
	defer e.goros.Done()
	for {
		e.mu.Lock()
		for len(e.pending) == 0 && !e.stopped {
			e.cond.Wait()
		}
		if len(e.pending) == 0 {
			// stopped with nothing left: drain complete.
			e.mu.Unlock()
			return
		}
		it := e.pending[0]
		e.pending[0] = nil
		e.pending = e.pending[1:]
		e.mu.Unlock()
		e.exec(it)
	}
}

// exec runs a task body on a pool worker. A panic is kept on the item
// for the join at its slot to re-raise on the dispatch side.
func (e *ParallelEngine) exec(it *item) {
	defer func() {
		it.panicked = recover()
		it.wg.Done()
		e.inflight.Done()
	}()
	it.fn()
}

// Shutdown stops the pool workers and then ends blocked processes
// exactly like the serial engine's Shutdown. Idempotent; must
// only be called after Run/RunUntil has returned, at which point the
// inflight barrier guarantees the pending queue is empty.
func (e *ParallelEngine) Shutdown() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.cond.Broadcast()
	e.engineCore.Shutdown()
}
