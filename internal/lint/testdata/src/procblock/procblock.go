// Package procblock holds golden cases for the procblock analyzer.
package procblock

import (
	"mv2sim/internal/cuda"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/sim"
)

var globalProc *sim.Proc

// Positive: a nil *sim.Proc can never block.
func nilProc(ctx *cuda.Ctx, dst, src mem.Ptr) {
	ctx.Memcpy(nil, dst, src, 8) // want `blocking call Ctx.Memcpy with nil \*sim\.Proc`
}

// Positive: the enclosing function neither receives nor obtains a process.
func fromGlobal(s *cuda.Stream) {
	s.Synchronize(globalProc) // want `blocking call Stream.Synchronize in a function that does not receive a \*sim\.Proc`
}

// Positive: blocking on a Proc-receiver method without local provenance.
func badWait(ev *sim.Event) {
	globalProc.Wait(ev) // want `blocking call Proc.Wait in a function that does not receive a \*sim\.Proc`
}

// Positive: engine-context callbacks run on the engine goroutine and must
// never block, even when the registering function owns a process.
func engineCallback(e *sim.Engine, s *cuda.Stream, p *sim.Proc) {
	e.CallAfter(10, func() {
		s.Synchronize(p) // want `blocking call Stream.Synchronize inside an engine-context callback`
	})
}

// Positive: OnTrigger callbacks are engine context too.
func triggerCallback(ev *sim.Event, s *cuda.Stream, p *sim.Proc) {
	ev.OnTrigger(func() {
		s.Synchronize(p) // want `blocking call Stream.Synchronize inside an engine-context callback`
	})
}

// Positive: continuations (Then, AcquireThen, GetThen), scheduled calls
// and kernel bodies run in engine context as well.
func continuations(e *sim.Engine, ev *sim.Event, res *sim.Resource, pool *hostmem.Pool, ctx *cuda.Ctx, s *cuda.Stream, p *sim.Proc) {
	ev.Then(func() {
		s.Synchronize(p) // want `blocking call Stream.Synchronize inside an engine-context callback`
	})
	res.AcquireThen(func() {
		p.Sleep(1) // want `blocking call Proc.Sleep inside an engine-context callback`
	})
	e.CallAt(5, func() {
		p.Sleep(0) // want `blocking call Proc.Sleep inside an engine-context callback`
	})
	pool.GetThen(func(v *hostmem.Vbuf) {
		pool.Get(p) // want `blocking call Pool.Get inside an engine-context callback`
	})
	ctx.LaunchKernelInto(ev, s, 8, func() {
		p.Wait(ev) // want `blocking call Proc.Wait inside an engine-context callback`
	})
}

// Positive: the queue, vbuf and rendezvous-protocol continuations of a
// transfer record run in engine context too.
func transferContinuations(q *sim.Queue, pool *hostmem.Pool, req *mpi.Request, s *cuda.Stream, p *sim.Proc) {
	q.GetThen(func(v interface{}) {
		q.Get(p) // want `blocking call Queue.Get inside an engine-context callback`
	})
	pool.GetRailThen(1, func(v *hostmem.Vbuf) {
		pool.GetRail(p, 1) // want `blocking call Pool.GetRail inside an engine-context callback`
	})
	req.AwaitCTSThen(func() {
		s.Synchronize(p) // want `blocking call Stream.Synchronize inside an engine-context callback`
	})
	req.AwaitSlotThen(0, func() {
		p.Sleep(1) // want `blocking call Proc.Sleep inside an engine-context callback`
	})
	req.AwaitFinThen(func(chunk int) {
		p.Sleep(0) // want `blocking call Proc.Sleep inside an engine-context callback`
	})
}

// Negative: a transfer record's continuations that only take free
// vbufs, post and schedule do not block.
func nonBlockingTransfer(e *sim.Engine, q *sim.Queue, pool *hostmem.Pool, req *mpi.Request) {
	req.AwaitFinThen(func(chunk int) {
		pool.GetRailThen(chunk, func(v *hostmem.Vbuf) {
			pool.Put(v)
			q.Put(chunk)
		})
	})
	req.AwaitSlotThen(0, func() {
		q.GetThen(func(interface{}) {
			e.CallAfter(2, func() {})
		})
	})
}

// Positive: a vbuf pool's Get blocks its caller.
func poolGets(pool *hostmem.Pool) {
	pool.Get(nil)              // want `blocking call Pool.Get with nil \*sim\.Proc`
	pool.GetRail(globalProc, 1) // want `blocking call Pool.GetRail in a function that does not receive a \*sim\.Proc`
}

// Negative: a continuation that only schedules, triggers and takes free
// vbufs does not block.
func nonBlockingContinuations(e *sim.Engine, ev *sim.Event, pool *hostmem.Pool) {
	ev.Then(func() {
		ev.Trigger()
		e.CallAfter(3, func() {})
	})
	pool.GetThen(func(v *hostmem.Vbuf) {
		if w, ok := pool.TryGet(); ok {
			pool.Put(w)
		}
		pool.Put(v)
	})
}

// Negative: a process that waits for a vbuf.
func poolInProc(pool *hostmem.Pool, p *sim.Proc) {
	v := pool.GetRail(p, 0)
	pool.Put(v)
}

// Negative: the function receives the process it blocks.
func withProc(p *sim.Proc, ctx *cuda.Ctx, dst, src mem.Ptr) {
	ctx.Memcpy(p, dst, src, 8)
	p.Sleep(5)
}

// Negative: the process is obtained locally from a simulation object.
func viaRank(r *mpi.Rank, s *cuda.Stream) {
	s.Synchronize(r.Proc())
}

// Negative: local variable assigned from a call is trusted provenance.
func viaLocal(r *mpi.Rank, s *cuda.Stream) {
	p := r.Proc()
	s.Synchronize(p)
}

// Negative: a spawned process body receives its own *sim.Proc.
func spawned(e *sim.Engine, s *cuda.Stream) {
	e.Spawn("worker", func(p *sim.Proc) {
		s.Synchronize(p)
		p.Sleep(0)
	})
}

// Positive: every Proc wait blocks, WaitAny included, and a derived
// blocking method counts like a root: AwaitFin reaches Proc.block through
// Queue.Get, AwaitSlot reaches Proc.Wait.
func derivedBlocking(e *sim.Engine, ev *sim.Event, req *mpi.Request, p *sim.Proc) {
	e.CallAt(5, func() {
		p.WaitAny(ev) // want `blocking call Proc.WaitAny inside an engine-context callback`
	})
	req.AwaitFin(nil) // want `blocking call Request.AwaitFin with nil \*sim\.Proc`
	req.AwaitCTSThen(func() {
		req.AwaitSlot(p, 0) // want `blocking call Request.AwaitSlot inside an engine-context callback`
	})
}

// Negative: an async copy blocks only to charge a non-nil process its
// issue cost, so engine code may issue it with a nil process.
func asyncFromEngine(e *sim.Engine, ctx *cuda.Ctx, s *cuda.Stream, dst, src mem.Ptr) {
	e.CallAfter(1, func() {
		ctx.MemcpyAsync(nil, dst, src, 8, s)
		ctx.Memcpy2DAsync(nil, dst, 8, src, 8, 8, 1, s)
	})
}

// Negative: a Launch-style rank body runs in the rank's process, so it
// may block on r.Proc(); the closure Launch wraps it in takes a *sim.Proc.
func rankBodies(w *mpi.World, s *cuda.Stream) {
	w.Launch(func(r *mpi.Rank) {
		p := r.Proc()
		p.Sleep(1)
		s.Synchronize(r.Proc())
	})
}

// Positive: a method the engine runs through a stored method value is an
// engine callback too, even when the process it blocks is its owner's.
type waiter struct {
	proc    *sim.Proc
	ev      *sim.Event
	retryFn func()
}

func (w *waiter) arm() {
	w.retryFn = w.retry
	w.ev.Then(w.retryFn)
}

func (w *waiter) retry() {
	w.proc.Wait(w.ev) // want `blocking call Proc.Wait inside an engine-context callback`
}
