// NIC-offloaded gather/scatter: the HCA's scatter/gather (SGE) unit.
//
// "Network-Accelerated Non-Contiguous Memory Transfers" (Di Girolamo et
// al., SC'19 / sPIN) shows the NIC itself can walk an MPI datatype: the
// send side posts work requests whose scatter/gather entries address the
// non-contiguous segments in place, and the receive side runs the inverse
// scatter as packets arrive — no GPU pack pass, no staging copy, the
// datatype walk overlapped with the wire.
//
// This file models that unit. An SGDesc lowers a cached
// datatype.ChunkPlan range into the descriptor one chunk's work requests
// carry; MaxSGEPerWQE caps the entries per work request, so descriptors
// with more segments split into several WQEs, each paying PostOverhead.
// A serialized per-rail engine (rail.sgEngine) executes descriptors one
// at a time at NicGatherNsPerSegment + NicGatherNsPerByte, the per-byte
// rate floored at the wire byte rate exactly like gpu.CostModel floors
// its pack-kernel rate at the copy engine's — the unit feeds the link and
// cannot outrun it. Executions appear on the per-rail "hcaN.nicEngine"
// obs track as KindNicGather / KindNicScatter tasks.
//
// The SGE unit addresses local memory through the HCA's own DMA path, so
// it reaches GPU device memory even on fabrics without GPUDirect RDMA
// (Model.AllowDeviceRegistration) — offload vendors ship exactly this
// asymmetry: the datatype engine has its own translation contexts, while
// plain remote-rkey registration of device memory remains the GPUDirect
// feature the 2011 testbed lacked. The Register gate is therefore NOT
// applied to scatter regions or gather sources.
package ib

import (
	"fmt"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Default calibration of the SGE unit. The per-segment walk cost sits
// between a ConnectX descriptor fetch and a sPIN handler invocation; the
// per-byte rate is below the QDR wire rate, so on the default fabric the
// bandwidth floor binds and segments are the cost driver — which is what
// makes the NIC engine win exactly the fine-grained shapes where kernel
// launch + staging overhead dominates.
const (
	// DefaultMaxSGEPerWQE is the scatter/gather entry cap per work
	// request (ConnectX-class HCAs advertise 32).
	DefaultMaxSGEPerWQE = 32
	// DefaultNicGatherNsPerSegment is the SGE unit's per-entry walk cost.
	DefaultNicGatherNsPerSegment = 20.0
	// DefaultNicGatherNsPerByte is the unit's raw streaming rate; the
	// QDR wire floor (1e9/Bandwidth = 0.3125 ns/B) binds above it.
	DefaultNicGatherNsPerByte = 0.05
)

// SGEPerWQE returns the model's scatter/gather entry cap, defaulted.
func (m Model) SGEPerWQE() int {
	if m.MaxSGEPerWQE > 0 {
		return m.MaxSGEPerWQE
	}
	return DefaultMaxSGEPerWQE
}

// GatherNsPerSegment returns the per-segment walk cost, defaulted.
func (m Model) GatherNsPerSegment() float64 {
	if m.NicGatherNsPerSegment > 0 {
		return m.NicGatherNsPerSegment
	}
	return DefaultNicGatherNsPerSegment
}

// NicGatherRate returns the SGE unit's effective per-byte cost: the
// configured streaming rate floored at the wire byte rate, mirroring
// gpu.CostModel.PackKernelRate's floor at the copy engine rate.
func (m Model) NicGatherRate() float64 {
	r := m.NicGatherNsPerByte
	if r <= 0 {
		r = DefaultNicGatherNsPerByte
	}
	if m.Bandwidth > 0 {
		if floor := 1e9 / m.Bandwidth; r < floor {
			r = floor
		}
	}
	return r
}

// GatherCost returns the modeled SGE engine occupancy of gathering (or
// scattering) `bytes` bytes spread over `segments` contiguous pieces:
// one PostOverhead per WQE — descriptors longer than SGEPerWQE entries
// split into several work requests — plus the per-segment walk and the
// floored per-byte streaming term.
func (m Model) GatherCost(bytes, segments int) sim.Time {
	wqes := (segments + m.SGEPerWQE() - 1) / m.SGEPerWQE()
	if wqes < 1 {
		wqes = 1
	}
	t := sim.Time(wqes) * m.PostOverhead
	t += sim.Time(float64(segments)*m.GatherNsPerSegment() + float64(bytes)*m.NicGatherRate())
	return t
}

// SGDesc is one gather/scatter descriptor: the packed byte range
// [Off, Off+N) of a chunk plan over the typed buffer at Buf, lowered to
// the entries the HCA's SGE unit walks. A nil Plan describes a single
// contiguous segment of N bytes at Buf.Add(Off) — the degenerate
// descriptor contiguous transfers and vbuf-staged gathers use.
type SGDesc struct {
	Plan *datatype.ChunkPlan
	Buf  mem.Ptr
	Off  int
	N    int
}

// Bytes returns the packed byte count the descriptor covers.
func (sg SGDesc) Bytes() int { return sg.N }

// Segments returns the number of scatter/gather entries the descriptor
// lowers to — the per-segment cost driver of GatherCost.
func (sg SGDesc) Segments() int {
	if sg.N == 0 {
		return 0
	}
	if sg.Plan == nil {
		return 1
	}
	return sg.Plan.RangeSegments(sg.Off, sg.N)
}

// sub narrows the descriptor to the packed sub-range [rel, rel+n) of its
// own range.
func (sg SGDesc) sub(rel, n int) SGDesc {
	return SGDesc{Plan: sg.Plan, Buf: sg.Buf, Off: sg.Off + rel, N: n}
}

// gather reads the descriptor's segments into dst (len(dst) == sg.N).
func (sg SGDesc) gather(dst []byte) {
	if sg.Plan == nil {
		copy(dst, sg.Buf.Add(sg.Off).Bytes(sg.N))
		return
	}
	sg.Plan.PackRangeBytes(dst, sg.Buf, sg.Off, sg.N)
}

// scatter writes src into the descriptor's segments — the inverse walk.
func (sg SGDesc) scatter(src []byte) {
	if sg.Plan == nil {
		copy(sg.Buf.Add(sg.Off).Bytes(len(src)), src)
		return
	}
	sg.Plan.UnpackRangeBytes(sg.Buf, src, sg.Off, len(src))
}

// scatterRegion is the receive-side state of a scatter-registered region:
// the descriptor covering the whole packed stream, the chunk geometry
// arriving writes are aligned to, and the per-chunk completion upcall.
// Records are pooled per HCA: Deregister recycles the region's.
type scatterRegion struct {
	sg         SGDesc
	chunkBytes int
	done       func(chunk int)
	next       *scatterRegion
}

// RegisterScatterRegion registers the packed address space of a gather
// descriptor for remote RDMA: an arriving write at packed offset roff is
// not copied to memory at roff but scattered through the SGE unit into
// the descriptor's segments, and done(chunk) fires when chunk
// roff/chunkBytes has landed in the typed buffer. Arriving writes must be
// chunk-aligned sub-ranges of the registered stream.
//
// Unlike Register, device memory is always acceptable here: the SGE
// unit's own DMA path reaches it without GPUDirect (see the package
// comment). The region's registered length is the packed stream size.
func (h *HCA) RegisterScatterRegion(sg SGDesc, chunkBytes int, done func(chunk int)) Region {
	if chunkBytes <= 0 {
		panic(fmt.Sprintf("ib: scatter region chunk size %d", chunkBytes))
	}
	sc := h.freeScatter
	if sc == nil {
		sc = &scatterRegion{}
	} else {
		h.freeScatter = sc.next
	}
	*sc = scatterRegion{sg: sg, chunkBytes: chunkBytes, done: done}
	r := Region{Rkey: h.nextRkey, ptr: sg.Buf, len: sg.N, sc: sc}
	h.nextRkey++
	h.regions[r.Rkey] = r
	return r
}

// sgWalk is one descriptor walk on a rail's SGE unit in flight. The unit
// is modeled as a chain of scheduled calls, not a process: the walk
// starts at the current instant, waits for the engine, then opens its
// span and schedules its memory work as a call due when the walk
// completes; at completion the span ends, the engine is released and
// the walk's kind finishes it. Records are pooled per fabric, with their
// steps bound once, so a walk allocates nothing.
type sgWalk struct {
	h    *HCA
	rl   *rail
	sg   SGDesc
	kind walkKind
	sp   obs.Span
	snap []byte // the gathered payload, or the arrived one to scatter

	// A gather for a write: where the gathered payload goes, the event
	// its local completion fires and the hook run once it is posted.
	done           *sim.Event
	dst, roff      int
	rkey           uint32
	railIdx, chunk int
	parent         obs.Span
	onWirePosted   func()

	// A scatter of an arrival: its region and the receive wire task.
	sc   *scatterRegion
	wire obs.Task

	// A bare gather (ExecuteGather): the bytes' destination.
	out []byte

	acquireFn, grantedFn, workFn, finishFn, sentFn func()
	next                                           *sgWalk
}

// walkKind says what a walk's memory work and completion are.
type walkKind uint8

const (
	walkWrite   walkKind = iota // gather, then post the payload as an RDMA write
	walkScatter                 // scatter an arrived write, then report its chunk
	walkGather                  // gather into a caller's buffer (ExecuteGather)
)

// newWalk takes a record from the fabric's pool for a walk of sg on rl.
func (h *HCA) newWalk(kind walkKind, rl *rail, sg SGDesc) *sgWalk {
	f := h.f
	w := f.walks
	if w == nil {
		w = &sgWalk{}
		w.acquireFn, w.grantedFn, w.workFn = w.acquire, w.granted, w.work
		w.finishFn, w.sentFn = w.finish, w.sent
	} else {
		f.walks = w.next
		w.next = nil
	}
	w.h, w.rl, w.sg, w.kind = h, rl, sg, kind
	return w
}

// start puts the walk on the unit: it asks for the engine at the current
// instant.
func (w *sgWalk) start() { w.h.f.e.CallAt(w.h.f.e.Now(), w.acquireFn) }

func (w *sgWalk) acquire() { w.rl.sgEngine.AcquireThen(w.grantedFn) }

// granted opens the walk's span; its memory work and its completion are
// calls due when the walk's modeled cost has passed.
func (w *sgWalk) granted() {
	h := w.h
	e := h.f.e
	at := e.Now() + h.f.model.GatherCost(w.sg.N, w.sg.Segments())
	switch w.kind {
	case walkWrite:
		w.sp = h.f.hub.StartChild(w.parent, obs.KindNicGather, w.rl.sgeTrack, w.chunk, w.sg.N)
		w.snap = mem.GetBytes(w.sg.N)
	case walkScatter:
		w.sp = h.f.hub.Start(obs.KindNicScatter, w.rl.sgeTrack, w.chunk, w.sg.N)
		w.sp.DependsOnTask(w.wire, obs.DepStage)
	default:
		w.sp = h.f.hub.Start(obs.KindNicGather, w.rl.sgeTrack, -1, w.sg.N)
	}
	e.CallAt(at, w.workFn)
	e.CallAt(at, w.finishFn)
}

// work is the walk's memory effect, due at its completion. A gather's
// DMA read of the segments happens here: the poster owns the typed
// buffer until the transfer completes. A scatter's typed bytes are due
// here; its payload is recycled once read.
func (w *sgWalk) work() {
	switch w.kind {
	case walkWrite:
		w.sg.gather(w.snap)
	case walkScatter:
		w.sg.scatter(w.snap)
		mem.PutBytes(w.snap)
		w.snap = nil
	default:
		w.sg.gather(w.out)
	}
}

// finish ends the walk at its completion instant: the engine is free,
// and a gathered write goes on the wire with its hook run right after.
func (w *sgWalk) finish() {
	w.sp.End()
	w.rl.sgEngine.Release()
	switch w.kind {
	case walkWrite:
		h := w.h
		t := h.f.newTransfer()
		h.transmit(t, nil, w.dst, len(w.snap), obs.KindRDMA, w.railIdx, w.parent, w.chunk)
		t.snap, t.rkey, t.roff = w.snap, w.rkey, w.roff
		w.snap = nil
		if w.onWirePosted != nil {
			w.onWirePosted()
		}
		// The record's own event fires "hcaN.tx.done"; done follows it
		// inline, as the gather's completion.
		t.localDone.OnTrigger(w.sentFn)
	case walkScatter:
		sc, chunk := w.sc, w.chunk
		w.free()
		if sc.done != nil {
			sc.done(chunk)
		}
	default:
		w.sent()
	}
}

// sent fires the walk's completion event and returns the record to the
// pool: a bare gather's at its end, a gathered write's once its transfer
// has left.
func (w *sgWalk) sent() {
	done := w.done
	w.free()
	done.Trigger()
}

// free returns the record to its fabric's pool.
func (w *sgWalk) free() {
	f := w.h.f
	*w = sgWalk{
		acquireFn: w.acquireFn, grantedFn: w.grantedFn, workFn: w.workFn,
		finishFn: w.finishFn, sentFn: w.sentFn, next: f.walks,
	}
	f.walks = w
}

// scatterDeposit routes an arrived write through the receiving rail's SGE
// unit: acquire the engine, walk the chunk's descriptor for its modeled
// cost, land the bytes in the typed buffer, release, and report the chunk
// complete. The scatter task records a stage dependency on the receive
// wire task, so the critical-path analyzer sees arrival → scatter as one
// chain and attributes engine wait to the nic-queueing bucket.
func (h *HCA) scatterDeposit(reg Region, roff int, snap []byte, railIdx int, wire obs.Task) {
	sc := reg.sc
	w := h.newWalk(walkScatter, h.railAt(railIdx), sc.sg.sub(roff, len(snap)))
	w.sc, w.chunk, w.wire, w.snap = sc, roff/sc.chunkBytes, wire, snap
	w.start()
}

// RDMAWriteGatherRailInto is the NIC-offloaded counterpart of
// RDMAWriteRailInto with a parent span and chunk tag: instead of
// snapshotting a contiguous source at post time, the rail's SGE unit
// first walks the gather descriptor (engine occupancy per GatherCost,
// traced as KindNicGather under parent), then the gathered payload goes
// to the wire. onWirePosted, when non-nil, runs synchronously right after
// the wire transfer has been posted — the hook protocol layers use to
// post the chunk's FIN behind the data on the same rail, preserving the
// FIN-after-data FIFO even though the gather delays the post. done, an
// event the caller holds, is re-armed here as "hcaN.gather.done" and
// fires at local wire completion.
func (h *HCA) RDMAWriteGatherRailInto(done *sim.Event, dst int, sg SGDesc, rkey uint32, roff, railIdx int, parent obs.Span, chunk int, onWirePosted func()) {
	rl := h.railAt(railIdx)
	done.Reset(h.f.e, h.gatherDoneName())
	h.stats.RDMAWrites++
	w := h.newWalk(walkWrite, rl, sg)
	w.done, w.dst, w.rkey, w.roff = done, dst, rkey, roff
	w.railIdx, w.parent, w.chunk, w.onWirePosted = railIdx, parent, chunk, onWirePosted
	w.start()
}

// gatherDoneName is the name of every gather's completion event, built
// on first use.
func (h *HCA) gatherDoneName() string {
	if h.gatherDone == "" {
		h.gatherDone = fmt.Sprintf("hca%d.gather.done", h.node)
	}
	return h.gatherDone
}

// ExecuteGather runs one descriptor through rail 0's SGE engine with no
// wire attached and returns the completion event; dst receives the
// gathered bytes at completion. This is the measurement entry point the
// pack-crossover sweep uses: the event's trigger time minus the post time
// is exactly GatherCost plus any engine queueing.
func (h *HCA) ExecuteGather(sg SGDesc, dst []byte) *sim.Event {
	done := h.f.e.NewEvent(h.gatherDoneName())
	w := h.newWalk(walkGather, h.railAt(0), sg)
	w.done, w.out = done, dst
	w.start()
	return done
}
