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
type Stream struct{ e *sim.Engine }

// Event is a stream marker.
type Event struct{ ev *sim.Event }

// op is one queued stream operation.
type op struct{ kernBody func() }

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
func (c *Ctx) Memcpy(p *sim.Proc, dst, src mem.Ptr, n int) {
	p.Wait(c.MemcpyAsync(p, dst, src, n, nil))
}

// Memcpy2D is a blocking strided copy.
func (c *Ctx) Memcpy2D(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int) {
	p.Wait(c.Memcpy2DAsync(p, dst, dpitch, src, spitch, width, height, nil))
}

// Memset is a blocking fill.
func (c *Ctx) Memset(p *sim.Proc, dst mem.Ptr, b byte, n int) { p.Sleep(1) }

// issue charges p the launch cost; a nil p (engine context) is charged
// nothing.
func (c *Ctx) issue(p *sim.Proc) {
	if p != nil {
		p.Sleep(1)
	}
}

// MemcpyAsync enqueues an async copy.
func (c *Ctx) MemcpyAsync(p *sim.Proc, dst, src mem.Ptr, n int, s *Stream) *sim.Event {
	c.issue(p)
	return &sim.Event{}
}

// Memcpy2DAsync enqueues an async strided copy.
func (c *Ctx) Memcpy2DAsync(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int, s *Stream) *sim.Event {
	c.issue(p)
	return &sim.Event{}
}

// LaunchKernelInto enqueues a kernel whose body runs in engine context
// and completes done.
func (c *Ctx) LaunchKernelInto(done *sim.Event, s *Stream, cells int, body func()) {
	s.exec(&op{kernBody: body})
}

// exec runs a kernel's body at its completion time.
func (s *Stream) exec(o *op) { s.e.CallAt(0, o.kernBody) }

// StreamWaitEvent makes s wait for ev.
func (c *Ctx) StreamWaitEvent(p *sim.Proc, s *Stream, ev *Event) {}

// Synchronize blocks until the stream drains.
func (s *Stream) Synchronize(p *sim.Proc) { p.Sleep(1) }

// Query reports whether the stream is idle.
func (s *Stream) Query() bool { return true }

// Record enqueues a marker on s.
func (ev *Event) Record(p *sim.Proc, s *Stream) {}

// Synchronize blocks until the marker completes.
func (ev *Event) Synchronize(p *sim.Proc) { p.Wait(ev.ev) }

// Query reports completion.
func (ev *Event) Query() bool { return true }
