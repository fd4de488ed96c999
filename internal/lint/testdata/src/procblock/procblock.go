// Package procblock holds golden cases for the procblock analyzer.
package procblock

import (
	"mv2sim/internal/cuda"
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
		p.Yield()
	})
}
