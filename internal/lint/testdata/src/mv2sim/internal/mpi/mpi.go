// Package mpi is a golden-test stub of the real internal/mpi.
package mpi

import (
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// Config holds MPI tunables.
type Config struct {
	EagerLimit int
	BlockSize  int
}

// Rank is one MPI process.
type Rank struct{}

// Proc returns the rank's simulation process.
func (r *Rank) Proc() *sim.Proc { return nil }

// Send is a blocking send.
func (r *Rank) Send(buf mem.Ptr, n int, dst, tag int) {}

// Recv is a blocking receive.
func (r *Rank) Recv(buf mem.Ptr, n int, src, tag int) {}

// World is the set of ranks.
type World struct{ e *sim.Engine }

// Launch runs fn as every rank's body, each in its own process.
func (w *World) Launch(fn func(r *Rank)) {
	w.e.Spawn("rank", func(p *sim.Proc) { fn(&Rank{}) })
}

// Request is a non-blocking communication handle.
type Request struct {
	slot              *sim.Event
	finQ              *sim.Queue
	slotFn, slotRetry func()
}

// AwaitCTSThen runs fn in engine context once the first CTS has arrived.
func (q *Request) AwaitCTSThen(fn func()) { q.slot.Then(fn) }

// AwaitSlot blocks p until chunk's slot is announced.
func (q *Request) AwaitSlot(p *sim.Proc, chunk int) { p.Wait(q.slot) }

// AwaitSlotThen runs fn in engine context once chunk's slot is announced.
func (q *Request) AwaitSlotThen(chunk int, fn func()) {
	q.slotFn = fn
	q.slotRetry = q.retrySlot
	q.slot.Then(q.slotRetry)
}

func (q *Request) retrySlot() {
	fn := q.slotFn
	q.AwaitSlotThen(0, fn)
}

// AwaitFin blocks p until a FIN arrives and returns its chunk.
func (q *Request) AwaitFin(p *sim.Proc) int {
	q.finQ.Get(p)
	return 0
}

// AwaitFinThen hands the next FIN's chunk to fn in engine context.
func (q *Request) AwaitFinThen(fn func(chunk int)) {
	q.finQ.GetThen(func(v interface{}) { fn(0) })
}
