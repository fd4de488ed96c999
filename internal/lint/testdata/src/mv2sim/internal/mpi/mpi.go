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

// Request is a non-blocking communication handle.
type Request struct{}

// AwaitCTSThen runs fn in engine context once the first CTS has arrived.
func (q *Request) AwaitCTSThen(fn func()) {}

// AwaitSlotThen runs fn in engine context once chunk's slot is announced.
func (q *Request) AwaitSlotThen(chunk int, fn func()) {}

// AwaitFinThen hands the next FIN's chunk to fn in engine context.
func (q *Request) AwaitFinThen(fn func(chunk int)) {}
