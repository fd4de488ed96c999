// Package cuda is a golden-test stub of the real internal/cuda.
package cuda

import (
	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// Ctx is a simulated CUDA context.
type Ctx struct{}

// Stream is an in-order work queue.
type Stream struct{}

// Event is a stream marker.
type Event struct{}

// NewCtx creates a context on dev.
func NewCtx(e *sim.Engine, dev *gpu.Device) *Ctx { return &Ctx{} }

// Malloc allocates device memory.
func (c *Ctx) Malloc(n int) (mem.Ptr, error) { return mem.Ptr{}, nil }

// MustMalloc allocates or panics.
func (c *Ctx) MustMalloc(n int) mem.Ptr { return mem.Ptr{} }

// Free releases an allocation.
func (c *Ctx) Free(p mem.Ptr) error { return nil }

// NewStream creates a stream.
func (c *Ctx) NewStream() *Stream { return &Stream{} }

// NewEvent creates an unrecorded event.
func (c *Ctx) NewEvent() *Event { return &Event{} }

// Memcpy is a blocking copy.
func (c *Ctx) Memcpy(p *sim.Proc, dst, src mem.Ptr, n int) {}

// Memcpy2D is a blocking strided copy.
func (c *Ctx) Memcpy2D(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int) {
}

// Memset is a blocking fill.
func (c *Ctx) Memset(p *sim.Proc, dst mem.Ptr, b byte, n int) {}

// MemcpyAsync enqueues an async copy.
func (c *Ctx) MemcpyAsync(p *sim.Proc, dst, src mem.Ptr, n int, s *Stream) *sim.Event {
	return &sim.Event{}
}

// Memcpy2DAsync enqueues an async strided copy.
func (c *Ctx) Memcpy2DAsync(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int, s *Stream) *sim.Event {
	return &sim.Event{}
}

// LaunchKernelInto enqueues a kernel whose body runs in engine context
// and completes done.
func (c *Ctx) LaunchKernelInto(done *sim.Event, s *Stream, cells int, body func()) {}

// StreamWaitEvent makes s wait for ev.
func (c *Ctx) StreamWaitEvent(p *sim.Proc, s *Stream, ev *Event) {}

// Synchronize blocks until the stream drains.
func (s *Stream) Synchronize(p *sim.Proc) {}

// Query reports whether the stream is idle.
func (s *Stream) Query() bool { return true }

// Record enqueues a marker on s.
func (ev *Event) Record(p *sim.Proc, s *Stream) {}

// Synchronize blocks until the marker completes.
func (ev *Event) Synchronize(p *sim.Proc) {}

// Query reports completion.
func (ev *Event) Query() bool { return true }
