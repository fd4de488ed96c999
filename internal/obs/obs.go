// Package obs is the task-based tracing and metrics layer for the whole
// simulated stack — the observability counterpart of the paper's Figure 3.
//
// The model follows Akita's tracing package: every interesting activity is
// a Task with a kind (what protocol/pipeline step it is), a location (which
// resource track it ran on), a chunk index, a byte count and virtual
// start/end times. Components emit tasks through a Hub; pluggable Tracer
// implementations consume them:
//
//	ChromeTracer   — Chrome trace_event JSON, one track per stream /
//	                 engine / HCA link / rank, loadable in Perfetto;
//	                 the executable Figure 3.
//	BusyTimeTracer — per-resource busy time and utilization over any
//	                 window (DMA engines, HCA links, vbuf pool).
//	StatsTracer    — count/total/avg/median per task kind, renderable
//	                 as a paper-style table via internal/report.
//
// Tracing is strictly opt-in. A nil *Hub (or a hub with no tracers) is
// fully functional: Start returns an inert Span and every operation on it
// is a no-op that performs zero heap allocations, so instrumented hot
// paths cost nothing when observability is off. All timestamps are virtual
// (sim.Time), so traces are byte-for-byte deterministic across runs.
package obs

import "mv2sim/internal/sim"

// Task kinds emitted by the instrumented stack. The five pipeline-stage
// kinds use the paper's stage names (section IV); protocol kinds mirror
// the rendezvous wire messages.
const (
	// Five-stage GPU pipeline (internal/core).
	KindPack   = "d2d_nc2c"   // stage 1: device-side pack into tbuf
	KindD2H    = "d2h_c2c"    // stage 2: stage into a registered host vbuf
	KindRDMA   = "rdma_write" // stage 3: one-sided write (also ib-level ops)
	KindH2D    = "h2d_c2c"    // stage 4: stage into the receiver tbuf
	KindUnpack = "d2d_c2nc"   // stage 5: device-side unpack into user buffer

	// Rendezvous protocol phases (internal/mpi).
	KindRTS       = "rts"
	KindCTS       = "cts"
	KindFIN       = "fin"
	KindSendEager = "send_eager"
	KindSendRndv  = "send_rndv"
	KindSendSelf  = "send_self"
	KindRecv      = "recv"

	// Device activity (internal/cuda, internal/gpu).
	KindKernel   = "kernel"
	KindMemset   = "memset"
	KindCopyH2D  = "h2d"
	KindCopyD2H  = "d2h"
	KindCopyD2D  = "d2d"
	KindCopyH2H  = "h2h"
	KindStreamOp = "stream_op"

	// Fabric activity (internal/ib).
	KindSend     = "send"
	KindRDMARead = "rdma_read"

	// NIC scatter/gather unit (internal/ib/sg.go): the HCA walking a
	// datatype descriptor on its per-rail SGE engine — the send-side
	// gather feeding the wire and the receive-side scatter landing
	// arrived chunks in the typed buffer.
	KindNicGather  = "nic_gather"
	KindNicScatter = "nic_scatter"

	// Staging pool (internal/hostmem): one task per vbuf hold, plus one
	// task per interval a requester spent blocked on an empty pool.
	KindVbuf     = "vbuf"
	KindVbufWait = "vbuf_wait"
)

// Dependency-edge labels recorded through Span.DependsOn. The critical-path
// analyzer (internal/obs/critpath) keys its gap classification on them.
const (
	// DepPack: a D2H stage could not start before this pack task finished.
	DepPack = "pack"
	// DepStage: the next pipeline stage of the same chunk (d2h→rdma,
	// h2d→unpack).
	DepStage = "stage"
	// DepWire: the receive-side wire task of a transfer depends on its
	// transmit-side task (internal/ib).
	DepWire = "wire"
	// DepSerial: FIFO serialization behind the previous task on the same
	// stream, link or engine (internal/cuda stream order).
	DepSerial = "serial"
	// DepVbufWait: the holder of a staging vbuf had to wait for the pool
	// to refill first (internal/hostmem).
	DepVbufWait = "vbuf_wait"
)

// Clock reports the current virtual time; *sim.Engine satisfies it.
type Clock interface {
	Now() sim.Time
}

// Task is one traced activity. ID is unique within a Hub; ParentID is zero
// for top-level tasks. Kind classifies the activity (see the Kind
// constants), What names this particular task (often equal to Kind), and
// Where names the resource track it ran on ("gpu0.d2hEngine", "hca1.rx",
// "rank0.pack", ...). Chunk is the pipeline chunk index, or -1 when the
// task is not chunked. An instant task has Start == End.
type Task struct {
	ID       uint64
	ParentID uint64
	Kind     string
	What     string
	Where    string
	Chunk    int
	Bytes    int
	Start    sim.Time
	End      sim.Time
}

// Instant reports whether the task is a zero-duration marker.
func (t Task) Instant() bool { return t.Start == t.End }

// Tracer consumes task records. TaskStart fires when a span is opened;
// TaskStep when an intermediate milestone is recorded; TaskEnd when the
// span closes (task.End is then set). Instant tasks arrive as a single
// TaskEnd with Start == End and no matching TaskStart. CounterSample
// reports a gauge value (e.g. vbuf-pool free count, HCA bytes moved).
//
// All calls happen in simulation order on the engine goroutine (or a
// process holding the baton), so implementations need no locking.
type Tracer interface {
	TaskStart(t Task)
	TaskStep(t Task, what string)
	TaskEnd(t Task)
	CounterSample(name string, at sim.Time, value float64)
}

// DepTracer is the optional Tracer extension receiving explicit dependency
// edges: task t could not proceed before the task with ID onID completed.
// Edges arrive while t is still open (t.End unset) and reference tasks by
// ID only; implementations resolve times from their own task tables.
// Tracers that don't implement it simply never see the edges.
type DepTracer interface {
	TaskDepends(t Task, onID uint64, label string)
}

// Hub fans task records out to the registered tracers and allocates task
// IDs. A nil *Hub is valid and inert; so is a hub with no tracers. The
// hot-path methods are written so that the disabled case allocates
// nothing.
type Hub struct {
	clock   Clock
	tracers []Tracer
	nextID  uint64
}

// NewHub creates a hub reading virtual time from clock. With no tracers
// the hub is permanently inert.
func NewHub(clock Clock, tracers ...Tracer) *Hub {
	return &Hub{clock: clock, tracers: tracers}
}

// Enabled reports whether any tracer is attached. Instrumentation sites
// may use it to skip work (closure construction, name formatting) that
// only matters when tracing.
func (h *Hub) Enabled() bool { return h != nil && len(h.tracers) > 0 }

// Start opens a span whose What equals its kind. Chunk is -1 for
// non-chunked tasks.
func (h *Hub) Start(kind, where string, chunk, bytes int) Span {
	return h.StartTask(kind, kind, where, chunk, bytes)
}

// StartTask opens a span with an explicit task name (What). The returned
// Span must be closed with End on every path, or handed off to code that
// does — the spanend analyzer enforces this.
func (h *Hub) StartTask(kind, what, where string, chunk, bytes int) Span {
	if !h.Enabled() {
		return Span{}
	}
	return h.start(0, kind, what, where, chunk, bytes)
}

// StartChild opens a span parented to another span, typically an MPI
// request span enclosing its pipeline stages. An inert parent yields a
// top-level span.
func (h *Hub) StartChild(parent Span, kind, where string, chunk, bytes int) Span {
	if !h.Enabled() {
		return Span{}
	}
	return h.start(parent.task.ID, kind, kind, where, chunk, bytes)
}

func (h *Hub) start(parentID uint64, kind, what, where string, chunk, bytes int) Span {
	h.nextID++
	t := Task{
		ID: h.nextID, ParentID: parentID,
		Kind: kind, What: what, Where: where,
		Chunk: chunk, Bytes: bytes,
		Start: h.clock.Now(),
	}
	for _, tr := range h.tracers {
		tr.TaskStart(t)
	}
	return Span{hub: h, task: t}
}

// Instant records a zero-duration marker task (protocol control messages:
// RTS, CTS, FIN). Tracers see it as a single TaskEnd with Start == End.
func (h *Hub) Instant(kind, where string, chunk, bytes int) {
	h.InstantChild(Span{}, kind, where, chunk, bytes)
}

// InstantChild records an instant marker parented to an open span (e.g. a
// chunk's FIN under its RDMA stage), and returns the marker's task record
// so callers can reference it in dependency edges. An inert parent yields a
// top-level marker; a disabled hub returns the zero Task.
func (h *Hub) InstantChild(parent Span, kind, where string, chunk, bytes int) Task {
	if !h.Enabled() {
		return Task{}
	}
	h.nextID++
	now := h.clock.Now()
	t := Task{ID: h.nextID, ParentID: parent.task.ID, Kind: kind, What: kind, Where: where, Chunk: chunk, Bytes: bytes, Start: now, End: now}
	for _, tr := range h.tracers {
		tr.TaskEnd(t)
	}
	return t
}

// depends fans a dependency edge out to the tracers that care.
func (h *Hub) depends(t Task, onID uint64, label string) {
	for _, tr := range h.tracers {
		if d, ok := tr.(DepTracer); ok {
			d.TaskDepends(t, onID, label)
		}
	}
}

// Counter records the current value of a named gauge.
func (h *Hub) Counter(name string, value float64) {
	if !h.Enabled() {
		return
	}
	now := h.clock.Now()
	for _, tr := range h.tracers {
		tr.CounterSample(name, now, value)
	}
}

// Span is an open task. Spans are small values: store them in structs,
// pass them to completion callbacks, close them with End. The zero Span
// (from a disabled hub) is inert and safe to End.
type Span struct {
	hub  *Hub
	task Task
}

// Active reports whether the span belongs to an enabled hub. Sites that
// would allocate to arrange a deferred End (e.g. registering an event
// callback) should guard on it.
func (s Span) Active() bool { return s.hub != nil }

// Task returns the span's task record (End unset until the span closes).
func (s Span) Task() Task { return s.task }

// DependsOn records that this span could not proceed before `on`
// completed. Either side being inert makes it a no-op, so instrumentation
// sites need no guards.
func (s Span) DependsOn(on Span, label string) {
	s.DependsOnTask(on.task, label)
}

// DependsOnTask is DependsOn against a task record (e.g. one returned by
// InstantChild, or a task that has already ended).
func (s Span) DependsOnTask(on Task, label string) {
	if s.hub == nil || on.ID == 0 {
		return
	}
	s.hub.depends(s.task, on.ID, label)
}

// Step records an intermediate milestone on the open span.
func (s Span) Step(what string) {
	if s.hub == nil {
		return
	}
	t := s.task
	t.End = s.hub.clock.Now()
	for _, tr := range s.hub.tracers {
		tr.TaskStep(t, what)
	}
}

// End closes the span at the current virtual time.
func (s Span) End() {
	if s.hub == nil {
		return
	}
	s.task.End = s.hub.clock.Now()
	for _, tr := range s.hub.tracers {
		tr.TaskEnd(s.task)
	}
}
