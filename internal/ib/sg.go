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
type scatterRegion struct {
	sg         SGDesc
	chunkBytes int
	done       func(chunk int)
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
	r := Region{
		Rkey: h.nextRkey,
		ptr:  sg.Buf,
		len:  sg.N,
		sc:   &scatterRegion{sg: sg, chunkBytes: chunkBytes, done: done},
	}
	h.nextRkey++
	h.regions[r.Rkey] = r
	return r
}

// walk runs one descriptor on rl's SGE unit. The unit is modeled as a
// chain of scheduled calls, not a process: it starts at the current
// instant, waits for the engine, then begin opens the walk's span and
// returns its memory work, which is a call due when the walk completes.
// At completion the span ends, the engine is released and then runs.
func (h *HCA) walk(rl *rail, sg SGDesc, begin func() (obs.Span, func()), then func()) {
	e := h.f.e
	var sp obs.Span
	finish := func() {
		sp.End()
		rl.sgEngine.Release()
		then()
	}
	granted := func() {
		at := e.Now() + h.f.model.GatherCost(sg.N, sg.Segments())
		var work func()
		sp, work = begin()
		e.CallAt(at, work)
		e.CallAt(at, finish)
	}
	e.CallAt(e.Now(), func() { rl.sgEngine.AcquireThen(granted) })
}

// scatterDeposit routes an arrived write through the receiving rail's SGE
// unit: acquire the engine, walk the chunk's descriptor for its modeled
// cost, land the bytes in the typed buffer, release, and report the chunk
// complete. The scatter task records a stage dependency on the receive
// wire task, so the critical-path analyzer sees arrival → scatter as one
// chain and attributes engine wait to the nic-queueing bucket.
func (h *HCA) scatterDeposit(reg Region, roff int, snap []byte, railIdx int, wire obs.Task) {
	sc := reg.sc
	chunk := roff / sc.chunkBytes
	sub := sc.sg.sub(roff, len(snap))
	rl := h.railAt(railIdx)
	h.walk(rl, sub, func() (obs.Span, func()) {
		sp := h.f.hub.Start(obs.KindNicScatter, rl.sgeTrack, chunk, sub.N)
		sp.DependsOnTask(wire, obs.DepStage)
		// The typed bytes are due when the scatter completes; snap is the
		// wire payload, recycled once the scatter has read it.
		return sp, func() {
			sub.scatter(snap)
			mem.PutBytes(snap)
		}
	}, func() {
		if sc.done != nil {
			sc.done(chunk)
		}
	})
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
	var snap []byte
	h.walk(rl, sg, func() (obs.Span, func()) {
		g := h.f.hub.StartChild(parent, obs.KindNicGather, rl.sgeTrack, chunk, sg.N)
		snap = mem.GetBytes(sg.N)
		// The unit's DMA read of the segments is due at gather completion;
		// the poster owns the typed buffer until the transfer completes.
		return g, func() { sg.gather(snap) }
	}, func() {
		t := h.f.newTransfer()
		h.transmit(t, nil, dst, len(snap), obs.KindRDMA, railIdx, parent, chunk)
		t.snap, t.rkey, t.roff = snap, rkey, roff
		if onWirePosted != nil {
			onWirePosted()
		}
		// The record's own event fires "hcaN.tx.done"; done follows it
		// inline, as the gather's completion.
		t.localDone.OnTrigger(done.Trigger)
	})
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
	rl := h.railAt(0)
	done := h.f.e.NewEvent(h.gatherDoneName())
	h.walk(rl, sg, func() (obs.Span, func()) {
		sp := h.f.hub.Start(obs.KindNicGather, rl.sgeTrack, -1, sg.N)
		return sp, func() { sg.gather(dst) }
	}, done.Trigger)
	return done
}
