// Package cuda provides a CUDA-4.0-flavoured runtime API over the
// simulated GPU in internal/gpu: memory management, synchronous and
// asynchronous 1D/2D memory copies, streams and events.
//
// The subset implemented is exactly what the paper's three code patterns
// (Figure 4) and MVAPICH2's internals need:
//
//	Memcpy / Memcpy2D            — blocking copies (Figure 4(a))
//	MemcpyAsync / Memcpy2DAsync  — stream-ordered copies (Figure 4(b))
//	Stream Query/Synchronize     — pipeline progress checks
//	Event Record/Synchronize     — inter-stream ordering
//
// Directions are inferred from the pointers (cudaMemcpyDefault under UVA);
// host pointers are ordinary mem.Ptr values into a host Space.
//
// Semantics mirrored from CUDA: operations within one stream execute in
// FIFO order; operations in different streams may overlap subject to the
// device's engine resources (one H2D DMA engine, one D2H DMA engine, an
// internal copy path, and the compute engine). A blocking call costs the
// caller the async-issue time plus a synchronization overhead on top of
// the transfer itself.
//
// A stream is a hardware queue, not a process: it advances by calls the
// engine schedules (see package sim), exactly where a worker process
// serving the queue would have resumed. Only the calling side blocks — the
// blocking API (Memcpy, Synchronize, ...) waits in the caller's process.
package cuda

import (
	"fmt"

	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Ctx binds a simulated device to the CUDA API for one node.
type Ctx struct {
	e       *sim.Engine
	dev     *gpu.Device
	nstream int
	def     *Stream
	hub     *obs.Hub
}

// SetHub attaches an observability hub; every stream operation (copy,
// kernel, memset) becomes a task on the stream's own track, covering the
// op from dequeue to completion — engine contention included.
func (c *Ctx) SetHub(h *obs.Hub) { c.hub = h }

// NewCtx creates a context on the given device. The context owns the
// default (NULL) stream used by the blocking API.
func NewCtx(e *sim.Engine, dev *gpu.Device) *Ctx {
	c := &Ctx{e: e, dev: dev}
	c.def = c.NewStream()
	return c
}

// Device returns the underlying simulated device.
func (c *Ctx) Device() *gpu.Device { return c.dev }

// Model returns the device cost model.
func (c *Ctx) Model() *gpu.CostModel { return c.dev.Model() }

// Malloc allocates device memory (cudaMalloc).
func (c *Ctx) Malloc(n int) (mem.Ptr, error) { return c.dev.Malloc(n) }

// MustMalloc allocates device memory or panics.
func (c *Ctx) MustMalloc(n int) mem.Ptr { return c.dev.MustMalloc(n) }

// MallocWith is Malloc of len(b) bytes backed by b, neither taken from
// the recycler nor cleared (mem.Space.AllocWith): for buffers internal
// to the simulator whose bytes are all written before they are read.
func (c *Ctx) MallocWith(b []byte) (mem.Ptr, error) {
	return c.dev.Space().AllocWith(b, gpu.Alignment)
}

// Free releases device memory (cudaFree).
func (c *Ctx) Free(p mem.Ptr) error { return c.dev.Free(p) }

// Release frees device memory like Free, but hands its backing back to
// the caller instead of to the recycler (mem.Space.Release).
func (c *Ctx) Release(p mem.Ptr) ([]byte, error) { return c.dev.Space().Release(p) }

// op is one stream-ordered operation. Ops are recycled through their
// stream's free list, linked by next there and in the stream's FIFO.
type op struct {
	shape       gpu.CopyShape
	dst, src    mem.Ptr
	noBytes     bool // a copy's engine time without its bytes (gpu.Job.NoBytes)
	kernCells   int
	kernNsCell  float64
	kernBody    func()
	isKernel    bool
	parent      obs.Span   // pipeline span to parent the op task under (may be inert)
	chunk       int        // pipeline chunk index, or -1
	isMarker    bool       // event record: completes instantly in stream order
	waitOn      *sim.Event // stream barrier: stall the stream until this fires
	memsetBytes int        // >0: a fill; costed as a device-bandwidth write
	memsetDst   mem.Ptr
	done        *sim.Event
	next        *op
}

// Stream is a CUDA stream: a FIFO of operations that contend for the
// device's engines. Like the hardware queue it models, a stream is not a
// process but a state machine driven by scheduled calls: run starts ops
// in order until one has to wait — for its engine and duration, or for
// the event of a StreamWaitEvent — and that op's completion call resumes
// it. One op is in flight at a time, so its state lives on the stream.
type Stream struct {
	ctx        *Ctx
	name       string
	head, tail *op  // queued ops
	free       *op  // recycled ops
	cur        *op  // op in flight
	active     bool // run is scheduled or an op is in flight
	pending    int
	drained    *sim.Event // recreated whenever pending drops to 0 with waiters
	lastOp     obs.Task   // previous traced op, for FIFO-serialization edges
	sp         obs.Span   // span of the op in flight
	job        gpu.Job    // device work of the op in flight

	// Method values bound once, so scheduling a step allocates nothing.
	runFn, completeFn func()

	// Event names, built on first use instead of per op, so creating a
	// stream costs no string.
	opName, drainedName string
}

// NewStream creates a stream (cudaStreamCreate).
func (c *Ctx) NewStream() *Stream {
	s := &Stream{ctx: c, name: fmt.Sprintf("gpu%d.stream%d", c.dev.ID(), c.nstream)}
	c.nstream++
	s.runFn, s.completeFn = s.run, s.complete
	s.job.Done = s.completeFn
	return s
}

// opSpan opens the tracing span for one stream op. Markers and stream
// waits carry no device work and are not traced.
func (s *Stream) opSpan(o *op) obs.Span {
	h := s.ctx.hub
	if !h.Enabled() || o.isMarker || o.waitOn != nil {
		return obs.Span{}
	}
	switch {
	case o.memsetBytes > 0:
		return h.Start(obs.KindMemset, s.name, -1, o.memsetBytes)
	case o.isKernel:
		return h.StartChild(o.parent, obs.KindKernel, s.name, o.chunk, o.kernCells)
	default:
		return h.StartChild(o.parent, gpu.CopyKind(gpu.DirOf(o.dst, o.src)), s.name, o.chunk, o.shape.Bytes())
	}
}

// run starts queued ops in FIFO order until one must wait, or the queue
// drains and the stream goes idle until the next enqueue.
func (s *Stream) run() {
	for {
		o := s.head
		if o == nil {
			s.active = false
			return
		}
		if s.head = o.next; s.head == nil {
			s.tail = nil
		}
		s.cur = o
		s.sp = s.opSpan(o)
		if s.sp.Active() {
			// FIFO order: this op could not start before the previous
			// traced op on the stream completed.
			s.sp.DependsOnTask(s.lastOp, obs.DepSerial)
			s.lastOp = s.sp.Task()
		}
		switch {
		case o.waitOn != nil:
			// cudaStreamWaitEvent: the stream stalls here until the event
			// completes; later ops in this stream wait behind it.
			if !o.waitOn.Fired() {
				o.waitOn.Then(s.completeFn)
				return
			}
		case o.isMarker:
			// No device work; completes in stream order.
		default:
			s.exec(o)
			return
		}
		s.finish()
	}
}

// exec hands the op's device work to the device; the job's completion
// call resumes the stream.
func (s *Stream) exec(o *op) {
	j := &s.job
	j.Dst, j.Src, j.Shape, j.NoBytes = o.dst, o.src, o.shape, o.noBytes
	j.Kernel, j.Cells, j.NsPerCell, j.Body = o.isKernel, o.kernCells, o.kernNsCell, o.kernBody
	j.Parent, j.Chunk = s.sp, o.chunk
	if o.memsetBytes > 0 {
		// A fill occupies the device like a half-bandwidth internal copy
		// (one write stream, no read): model as a kernel of memsetBytes
		// cells at the copy engine's per-byte write rate.
		j.Cells, j.NsPerCell = o.memsetBytes, 1e9/s.ctx.Model().DevBandwidth
		if !o.memsetDst.IsDevice() {
			j.NsPerCell = 1e9 / s.ctx.Model().HostBandwidth
		}
	}
	s.ctx.dev.Exec(j)
}

// complete is the completion call of the op in flight: finish it and go
// on with the queue.
func (s *Stream) complete() {
	s.finish()
	s.run()
}

// finish completes the op in flight and recycles it. It runs after the
// slot of the op's memory call, so that call is done reading the op.
func (s *Stream) finish() {
	o := s.cur
	s.cur = nil
	s.sp.End()
	s.job.Body, s.job.Parent = nil, obs.Span{}
	o.done.Trigger()
	s.pending--
	if s.pending == 0 && s.drained != nil {
		s.drained.Trigger()
		s.drained = nil
	}
	*o = op{next: s.free}
	s.free = o
}

// enqueue appends an op to the stream and returns the event its
// completion fires: done, re-armed, when the caller holds one, or a new
// event. An idle stream starts the op at the current instant, in the
// slot where the wake-up of a worker process blocked on an empty queue
// would have been.
func (s *Stream) enqueue(v op, done *sim.Event) *sim.Event {
	if s.opName == "" {
		s.opName = s.name + ".op"
	}
	o := s.free
	if o != nil {
		s.free = o.next
	} else {
		o = new(op)
	}
	*o = v
	if done != nil {
		done.Reset(s.ctx.e, s.opName)
	} else {
		done = s.ctx.e.NewEvent(s.opName)
	}
	o.done = done
	if s.tail == nil {
		s.head = o
	} else {
		s.tail.next = o
	}
	s.tail = o
	s.pending++
	if !s.active {
		s.active = true
		s.ctx.e.CallAt(s.ctx.e.Now(), s.runFn)
	}
	return o.done
}

// Query reports whether all work submitted to the stream has completed
// (cudaStreamQuery == cudaSuccess).
func (s *Stream) Query() bool { return s.pending == 0 }

// Synchronize blocks until all submitted work completes
// (cudaStreamSynchronize). The caller additionally pays the blocking-call
// overhead.
func (s *Stream) Synchronize(p *sim.Proc) {
	if s.pending > 0 {
		if s.drained == nil {
			if s.drainedName == "" {
				s.drainedName = s.name + ".drained"
			}
			s.drained = s.ctx.e.NewEvent(s.drainedName)
		}
		p.Wait(s.drained)
	}
	p.Sleep(s.ctx.Model().SyncOverhead)
}

// issue charges the calling process the host-side cost of an async launch.
// Asynchronous operations may also be issued from engine context (e.g. a
// completion callback chaining the next pipeline stage) by passing a nil
// proc; the issue cost is then not charged to anyone, modeling work done
// by an already-running progress thread.
func (c *Ctx) issue(p *sim.Proc) {
	if p != nil {
		p.Sleep(c.Model().AsyncIssue)
	}
}

// MemcpyAsync enqueues a contiguous n-byte copy on the stream and returns
// its completion event (cudaMemcpyAsync).
func (c *Ctx) MemcpyAsync(p *sim.Proc, dst, src mem.Ptr, n int, s *Stream) *sim.Event {
	return c.MemcpyAsyncTask(p, dst, src, n, s, obs.Span{}, -1)
}

// MemcpyAsyncTask is MemcpyAsync with the stream-op task parented to an
// enclosing pipeline-stage span and tagged with its chunk index, so stage
// tasks decompose into stream-queue wait, engine wait and pure copy time
// in the trace. An inert parent and chunk -1 degrade to plain tracing.
func (c *Ctx) MemcpyAsyncTask(p *sim.Proc, dst, src mem.Ptr, n int, s *Stream, parent obs.Span, chunk int) *sim.Event {
	c.issue(p)
	return s.enqueue(op{dst: dst, src: src, shape: gpu.Shape1D(n), parent: parent, chunk: chunk}, nil)
}

// MemcpyAsyncInto is MemcpyAsyncTask for a continuation in engine
// context: it charges no issue time (the caller has modeled the launch,
// e.g. with CallAt(now+AsyncIssue, ...)) and completes done, an event the
// caller holds by value, instead of a new event. done is re-armed here; the
// caller must not reuse it before it has fired and its waiter has run.
func (c *Ctx) MemcpyAsyncInto(done *sim.Event, dst, src mem.Ptr, n int, s *Stream, parent obs.Span, chunk int) {
	s.enqueue(op{dst: dst, src: src, shape: gpu.Shape1D(n), parent: parent, chunk: chunk}, done)
}

// MemcpyAsyncNoBytesInto is MemcpyAsyncInto for a staging hop whose
// destination nobody reads: the op is queued, costed, traced and
// completed as the copy would be, in the same slots, but moves no bytes
// (gpu.Job.NoBytes).
func (c *Ctx) MemcpyAsyncNoBytesInto(done *sim.Event, dst, src mem.Ptr, n int, s *Stream, parent obs.Span, chunk int) {
	s.enqueue(op{dst: dst, src: src, shape: gpu.Shape1D(n), noBytes: true, parent: parent, chunk: chunk}, done)
}

// Memcpy2DAsync enqueues a 2D strided copy: height rows of width bytes,
// with destination/source pitches (cudaMemcpy2DAsync).
func (c *Ctx) Memcpy2DAsync(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int, s *Stream) *sim.Event {
	return c.Memcpy2DAsyncTask(p, dst, dpitch, src, spitch, width, height, s, obs.Span{}, -1)
}

// Memcpy2DAsyncTask is Memcpy2DAsync with stage-span parenting and a chunk
// tag, like MemcpyAsyncTask.
func (c *Ctx) Memcpy2DAsyncTask(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int, s *Stream, parent obs.Span, chunk int) *sim.Event {
	c.issue(p)
	return s.enqueue(op{dst: dst, src: src, shape: gpu.CopyShape{Width: width, Height: height, DPitch: dpitch, SPitch: spitch}, parent: parent, chunk: chunk}, nil)
}

// Memcpy2DAsyncInto is Memcpy2DAsyncTask for a continuation, like
// MemcpyAsyncInto.
func (c *Ctx) Memcpy2DAsyncInto(done *sim.Event, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int, s *Stream, parent obs.Span, chunk int) {
	s.enqueue(op{dst: dst, src: src, shape: gpu.CopyShape{Width: width, Height: height, DPitch: dpitch, SPitch: spitch}, parent: parent, chunk: chunk}, done)
}

// Memcpy performs a blocking contiguous copy (cudaMemcpy): issue on the
// default stream, wait for it, pay the synchronization overhead.
func (c *Ctx) Memcpy(p *sim.Proc, dst, src mem.Ptr, n int) {
	ev := c.MemcpyAsync(p, dst, src, n, c.def)
	p.Wait(ev)
	p.Sleep(c.Model().SyncOverhead)
}

// Memcpy2D performs a blocking 2D copy (cudaMemcpy2D).
func (c *Ctx) Memcpy2D(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int) {
	ev := c.Memcpy2DAsync(p, dst, dpitch, src, spitch, width, height, c.def)
	p.Wait(ev)
	p.Sleep(c.Model().SyncOverhead)
}

// LaunchKernel enqueues a kernel on the stream. cells×nsPerCell defines
// the modeled duration; body applies the kernel's effect to memory at
// completion time.
func (c *Ctx) LaunchKernel(p *sim.Proc, s *Stream, cells int, nsPerCell float64, body func()) *sim.Event {
	return c.LaunchKernelTask(p, s, obs.Span{}, -1, cells, nsPerCell, body)
}

// LaunchKernelTask enqueues a kernel like LaunchKernel, but traces the
// stream op as a child of parent with the given pipeline chunk index, so
// pack/unpack kernels nest under their transfer's stage span in the trace.
// An inert parent and chunk -1 degrade to LaunchKernel's plain tracing.
func (c *Ctx) LaunchKernelTask(p *sim.Proc, s *Stream, parent obs.Span, chunk, cells int, nsPerCell float64, body func()) *sim.Event {
	c.issue(p)
	return s.enqueue(op{isKernel: true, kernCells: cells, kernNsCell: nsPerCell, kernBody: body, parent: parent, chunk: chunk}, nil)
}

// LaunchKernelInto is LaunchKernelTask for a continuation, like
// MemcpyAsyncInto.
func (c *Ctx) LaunchKernelInto(done *sim.Event, s *Stream, parent obs.Span, chunk, cells int, nsPerCell float64, body func()) {
	s.enqueue(op{isKernel: true, kernCells: cells, kernNsCell: nsPerCell, kernBody: body, parent: parent, chunk: chunk}, done)
}

// Event is a CUDA event: a marker recorded into a stream.
type Event struct {
	c  *Ctx
	ev *sim.Event
}

// NewEvent creates an unrecorded event (cudaEventCreate).
func (c *Ctx) NewEvent() *Event { return &Event{c: c} }

// Record enqueues the event marker on the stream (cudaEventRecord). The
// event completes when all prior work in the stream has completed.
// Re-recording resets the event to the new position.
func (ev *Event) Record(p *sim.Proc, s *Stream) {
	ev.c.issue(p)
	ev.ev = s.enqueue(op{isMarker: true, chunk: -1}, nil)
}

// Query reports whether the recorded marker has completed
// (cudaEventQuery). An unrecorded event reports false, mirroring CUDA's
// cudaErrorNotReady-until-recorded behaviour closely enough for callers.
func (ev *Event) Query() bool { return ev.ev != nil && ev.ev.Fired() }

// Synchronize blocks until the recorded marker completes
// (cudaEventSynchronize). It panics if the event was never recorded.
func (ev *Event) Synchronize(p *sim.Proc) {
	if ev.ev == nil {
		panic("cuda: Synchronize on unrecorded event")
	}
	p.Wait(ev.ev)
	p.Sleep(ev.c.Model().SyncOverhead)
}

// CompletedAt returns the virtual time the marker completed; it panics if
// the event has not completed.
func (ev *Event) CompletedAt() sim.Time {
	if !ev.Query() {
		panic("cuda: CompletedAt on incomplete event")
	}
	return ev.ev.FiredAt()
}

// MemsetAsync enqueues a fill of n bytes at dst with value b
// (cudaMemsetAsync). Device fills run on the internal copy path at device
// bandwidth; host fills cost host memcpy time.
func (c *Ctx) MemsetAsync(p *sim.Proc, dst mem.Ptr, b byte, n int, s *Stream) *sim.Event {
	c.issue(p)
	return s.enqueue(op{isKernel: true, kernCells: 0, kernNsCell: 0, kernBody: func() {
		buf := dst.Bytes(n)
		for i := range buf {
			buf[i] = b
		}
	}, memsetBytes: n, memsetDst: dst, chunk: -1}, nil)
}

// Memset performs a blocking fill (cudaMemset).
func (c *Ctx) Memset(p *sim.Proc, dst mem.Ptr, b byte, n int) {
	ev := c.MemsetAsync(p, dst, b, n, c.def)
	p.Wait(ev)
	p.Sleep(c.Model().SyncOverhead)
}

// StreamWaitEvent makes all work submitted to s after this call wait until
// the event's recorded marker completes (cudaStreamWaitEvent) — the
// standard way to express cross-stream dependencies without blocking the
// host. The event must have been recorded.
func (c *Ctx) StreamWaitEvent(p *sim.Proc, s *Stream, ev *Event) {
	if ev.ev == nil {
		panic("cuda: StreamWaitEvent on unrecorded event")
	}
	c.issue(p)
	s.enqueue(op{waitOn: ev.ev, chunk: -1}, nil)
}
