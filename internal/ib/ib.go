// Package ib simulates an InfiniBand RDMA fabric at the level MVAPICH2's
// rendezvous protocol needs: reliable, ordered messaging between host
// channel adapters (HCAs), memory registration with rkeys, two-sided sends
// delivered to a receive handler, and one-sided RDMA writes that deposit
// bytes directly into registered remote host memory with no receiver
// involvement.
//
// The cost model follows a Mellanox QDR ConnectX-2 (the paper's testbed):
// ~3.2 GB/s effective unidirectional bandwidth, ~1.3 µs short-message
// latency, sub-microsecond posting overhead. Each HCA serializes egress on
// its send link and ingress on its receive link; transfers between
// different node pairs proceed concurrently, matching a non-blocking
// fat-tree at this scale (8 nodes).
//
// Ordering: operations posted from one HCA on one rail are wire-serialized
// in post order and delivered in order, so a send posted after an RDMA
// write on the same rail arrives after the write's bytes have landed — the
// invariant the paper's "RDMA write finish message" relies on. With
// Model.Rails > 1 each HCA exposes several independently-serialized rails
// (queue pairs striped across parallel link resources); the FIFO guarantee
// holds only per rail, never across rails, so protocols that need
// FIN-after-data must post both operations on the same rail.
package ib

import (
	"fmt"
	"sync"

	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Model holds the fabric cost constants.
type Model struct {
	// Bandwidth is the effective unidirectional link bandwidth in bytes/s.
	Bandwidth float64
	// Latency is the end-to-end wire+switch latency of the first byte.
	Latency sim.Time
	// PostOverhead is the host-side cost of posting one work request.
	PostOverhead sim.Time
	// Rails is the number of independently-serialized send/receive link
	// pairs (queue-pair rails) per HCA. Each rail runs the same per-link
	// bandwidth/latency model, so aggregate fabric bandwidth scales with
	// the rail count — the multi-rail striping configuration of
	// arXiv:1908.08590. Zero means 1 (the paper's single-rail testbed).
	Rails int
	// AllowDeviceRegistration lets HCAs pin GPU device memory for RDMA —
	// GPUDirect RDMA, which did not exist on the paper's 2011 testbed but
	// arrived in its successors (MVAPICH2-GDR). Off by default.
	AllowDeviceRegistration bool

	// MaxSGEPerWQE caps the scatter/gather entries one work request can
	// carry; a gather descriptor with more segments is split into
	// ceil(segments/MaxSGEPerWQE) WQEs, each paying PostOverhead. Zero
	// means DefaultMaxSGEPerWQE. See sg.go.
	MaxSGEPerWQE int
	// NicGatherNsPerSegment is the SGE unit's per-segment walk cost
	// (address generation, one DMA descriptor fetch per entry). Zero means
	// DefaultNicGatherNsPerSegment.
	NicGatherNsPerSegment float64
	// NicGatherNsPerByte is the SGE unit's streaming cost per gathered
	// byte, floored at the wire byte rate (the unit feeds the link and
	// cannot outrun it). Zero means DefaultNicGatherNsPerByte.
	NicGatherNsPerByte float64
}

// DefaultModel returns the QDR calibration used throughout the repository.
func DefaultModel() Model {
	return Model{
		Bandwidth:             3.2e9,
		Latency:               1300 * sim.Nanosecond,
		PostOverhead:          300 * sim.Nanosecond,
		MaxSGEPerWQE:          DefaultMaxSGEPerWQE,
		NicGatherNsPerSegment: DefaultNicGatherNsPerSegment,
		NicGatherNsPerByte:    DefaultNicGatherNsPerByte,
	}
}

// Message is an opaque protocol header carried by a two-sided send.
// The MPI layer defines the concrete types.
type Message interface{}

// Handler receives two-sided messages on an HCA. It runs in engine
// context at delivery-completion time and must not block; payload is the
// sender's snapshot of the inline data (nil for header-only messages). The
// snapshot is a pooled buffer that is recycled for another message as
// soon as the handler returns, so it must not be retained beyond the call
// without copying.
type Handler func(from int, msg Message, payload []byte)

// Fabric is the switch connecting all HCAs.
type Fabric struct {
	e     sim.Engine
	model Model
	hcas  map[int]*HCA
	hub   *obs.Hub
	bufs  BufPool
}

// BufPool recycles host payload buffers by exact length: RDMA write
// snapshots, two-sided send snapshots, and the MPI layer's eager buffers
// all draw from the one pool of their fabric, so a steady stream of
// equal-size messages allocates nothing. Get returns a buffer with stale
// contents; every user overwrites all of it before reading. Reuse is LIFO
// and deterministic. A buffer may be returned by an engine task body,
// which the parallel engine runs on a worker, hence the mutex.
type BufPool struct {
	mu   sync.Mutex
	free map[int][][]byte
}

// Get returns an n-byte buffer, reusing the most recently returned one of
// that length. Get(0) returns nil.
func (bp *BufPool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	l := bp.free[n]
	if len(l) == 0 {
		return make([]byte, n)
	}
	bp.free[n] = l[:len(l)-1]
	return l[len(l)-1]
}

// Put returns b to the pool. The caller must hold no other reference to
// it: the next Get of its length hands it to another message.
func (bp *BufPool) Put(b []byte) {
	if len(b) == 0 {
		return
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.free == nil {
		bp.free = map[int][][]byte{}
	}
	bp.free[len(b)] = append(bp.free[len(b)], b)
}

// SetHub attaches an observability hub: every wire operation becomes a
// task on the sending HCA's tx track and the receiving HCA's rx track,
// and cumulative per-HCA byte counters are sampled after each transfer.
func (f *Fabric) SetHub(h *obs.Hub) { f.hub = h }

// NewFabric creates an empty fabric.
func NewFabric(e sim.Engine, model Model) *Fabric {
	if model.Bandwidth <= 0 {
		allow, rails := model.AllowDeviceRegistration, model.Rails
		model = DefaultModel()
		model.AllowDeviceRegistration = allow
		model.Rails = rails
	}
	// minRails is the floor for an unset or nonsense rail count; the
	// calibrated default lives in mpi.DefaultRails (ib sits below mpi in
	// the dependency order, so it only clamps).
	const minRails = 1
	if model.Rails < minRails {
		model.Rails = minRails
	}
	return &Fabric{e: e, model: model, hcas: map[int]*HCA{}}
}

// Model returns the fabric's cost model.
func (f *Fabric) Model() Model { return f.model }

// Rails returns the number of rails each HCA exposes (always >= 1).
func (f *Fabric) Rails() int { return f.model.Rails }

// NewHCA attaches an adapter for the given node ID. Node IDs must be
// unique.
func (f *Fabric) NewHCA(node int) *HCA {
	if _, dup := f.hcas[node]; dup {
		panic(fmt.Sprintf("ib: duplicate HCA for node %d", node))
	}
	h := &HCA{
		f:        f,
		node:     node,
		txCtr:    fmt.Sprintf("hca%d.bytesTx", node),
		rxCtr:    fmt.Sprintf("hca%d.bytesRx", node),
		txDone:   fmt.Sprintf("hca%d.tx.done", node),
		regions:  map[uint32]Region{},
		nextRkey: 1,
	}
	for i := 0; i < f.model.Rails; i++ {
		// Single-rail fabrics keep the historical "hcaN.tx"/"hcaN.rx"
		// resource and track names bit-for-bit; multi-rail fabrics suffix
		// every rail (including rail 0) so traces never mix a bare name
		// with rail-indexed siblings.
		txName := fmt.Sprintf("hca%d.tx", node)
		rxName := fmt.Sprintf("hca%d.rx", node)
		if f.model.Rails > 1 {
			txName = fmt.Sprintf("hca%d.tx.r%d", node, i)
			rxName = fmt.Sprintf("hca%d.rx.r%d", node, i)
		}
		// The scatter/gather unit is serialized per rail like the links:
		// one engine walks one descriptor at a time (sPIN-style handler
		// cores are few; see sg.go).
		sgeName := fmt.Sprintf("hca%d.nicEngine", node)
		if f.model.Rails > 1 {
			sgeName = fmt.Sprintf("hca%d.nicEngine.r%d", node, i)
		}
		h.rails = append(h.rails, &rail{
			sendLink: f.e.NewResource(txName, 1),
			recvLink: f.e.NewResource(rxName, 1),
			sgEngine: f.e.NewResource(sgeName, 1),
			txTrack:  txName,
			rxTrack:  rxName,
			sgeTrack: sgeName,
			qCtr:     txName + ".queue",
		})
	}
	f.hcas[node] = h
	return h
}

// HCA returns the adapter for a node, or nil.
func (f *Fabric) HCA(node int) *HCA { return f.hcas[node] }

// Region is a registered memory region addressable by remote RDMA. A
// region registered through RegisterScatterRegion additionally carries the
// scatter descriptor the SGE unit applies to arriving writes (see sg.go).
type Region struct {
	Rkey uint32
	ptr  mem.Ptr
	len  int
	sc   *scatterRegion
}

// Len returns the registered length.
func (r Region) Len() int { return r.len }

// Stats accumulates per-HCA counters.
type Stats struct {
	SendsPosted int
	RDMAWrites  int
	RDMAReads   int
	BytesTx     int64
	BytesRx     int64
}

// rail is one independently-serialized send/receive link pair of an HCA
// (one queue-pair rail). Each rail owns its own wire-order FIFO; nothing
// is ordered across rails.
type rail struct {
	sendLink *sim.Resource
	recvLink *sim.Resource
	// sgEngine is the rail's scatter/gather unit: it executes one gather
	// or scatter descriptor at a time (see sg.go).
	sgEngine *sim.Resource
	// precomputed obs track names
	txTrack, rxTrack, sgeTrack string
	// queued counts transfers posted to this rail that have not yet put
	// their last byte on the wire — the send-queue depth, sampled as the
	// "<txTrack>.queue" gauge. Under open-loop load its growth is the
	// first visible sign of saturation.
	queued int
	qCtr   string
}

// HCA is one node's adapter.
type HCA struct {
	f        *Fabric
	node     int
	rails    []*rail
	handler  Handler
	regions  map[uint32]Region
	nextRkey uint32
	stats    Stats
	seq      int

	// precomputed obs counter names
	txCtr, rxCtr string
	// precomputed transfer names: the local-completion event, and the
	// per-destination prefix "hcaN->D." of each transfer's process
	txDone     string
	sendPrefix []string
}

// Node returns the node ID this HCA serves.
func (h *HCA) Node() int { return h.node }

// Buffers returns the fabric's payload buffer pool.
func (h *HCA) Buffers() *BufPool { return &h.f.bufs }

// sendName returns the prefix "hcaN->dst." that transmit numbers its
// processes with, built once per destination.
func (h *HCA) sendName(dst int) string {
	for len(h.sendPrefix) <= dst {
		h.sendPrefix = append(h.sendPrefix, "")
	}
	if h.sendPrefix[dst] == "" {
		h.sendPrefix[dst] = fmt.Sprintf("hca%d->%d.", h.node, dst)
	}
	return h.sendPrefix[dst]
}

// Model returns the fabric cost model this HCA operates under.
func (h *HCA) Model() Model { return h.f.model }

// Rails returns the number of rails this HCA exposes (always >= 1).
func (h *HCA) Rails() int { return len(h.rails) }

// railAt bounds-checks and fetches a rail.
func (h *HCA) railAt(i int) *rail {
	if i < 0 || i >= len(h.rails) {
		panic(fmt.Sprintf("ib: rail %d out of range (hca%d has %d rails)", i, h.node, len(h.rails)))
	}
	return h.rails[i]
}

// Stats returns a copy of the counters.
func (h *HCA) Stats() Stats { return h.stats }

// SetHandler installs the upcall for two-sided message delivery.
func (h *HCA) SetHandler(fn Handler) { h.handler = fn }

// Register pins a memory range for remote access and returns its region.
// Registering device memory panics unless the fabric model enables
// AllowDeviceRegistration: the simulated 2011-era HCA cannot DMA into GPU
// memory (no GPUDirect RDMA), which is precisely why the paper stages
// through host vbufs. The GPUDirect mode exists to quantify what its
// successors gained.
func (h *HCA) Register(p mem.Ptr, n int) Region {
	if p.IsDevice() && !h.f.model.AllowDeviceRegistration {
		panic("ib: cannot register device memory (no GPUDirect RDMA on this fabric)")
	}
	p.Bytes(n) // bounds-check the range now
	r := Region{Rkey: h.nextRkey, ptr: p, len: n}
	h.nextRkey++
	h.regions[r.Rkey] = r
	return r
}

// Deregister removes a region. RDMA writes targeting it afterwards panic.
func (h *HCA) Deregister(r Region) {
	if _, ok := h.regions[r.Rkey]; !ok {
		panic(fmt.Sprintf("ib: deregister of unknown rkey %d", r.Rkey))
	}
	delete(h.regions, r.Rkey)
}

// wireTime is the link occupancy of an n-byte transfer.
func (h *HCA) wireTime(n int) sim.Time {
	return h.f.model.PostOverhead + sim.DurationOf(n, h.f.model.Bandwidth)
}

// transmit implements the shared egress/ingress path: snapshot is the
// payload already captured at post time; deliver runs in engine context at
// the remote side once the bytes have fully arrived. kind classifies the
// operation for tracing. railIdx selects which of the sender's (and,
// symmetrically, the receiver's) rails the transfer serializes on.
//
// parent/chunk thread pipeline identity into the trace: the tx task is a
// child of parent (typically the sender's rdma stage span) tagged with the
// chunk index, and the rx task — which cannot be contained in the sender's
// span because it outlives local completion — carries the same chunk tag
// plus an explicit wire dependency edge back to the tx task, which is how
// the critical-path analyzer crosses ranks.
func (h *HCA) transmit(dst int, nbytes int, kind string, railIdx int, parent obs.Span, chunk int, deliver func(rx *HCA, wire obs.Task)) *sim.Event {
	rx := h.f.hcas[dst]
	if rx == nil {
		panic(fmt.Sprintf("ib: no HCA for destination node %d", dst))
	}
	if rx == h {
		panic("ib: loopback transfer; same-node communication does not use the fabric")
	}
	txRail, rxRail := h.railAt(railIdx), rx.railAt(railIdx)
	localDone := h.f.e.NewEvent(h.txDone)
	h.seq++
	txRail.queued++
	h.f.hub.Counter(txRail.qCtr, float64(txRail.queued))
	h.f.e.SpawnNumbered(h.sendName(dst), h.seq, func(p *sim.Proc) {
		txRail.sendLink.Acquire(p)
		tx := h.f.hub.StartChild(parent, kind, txRail.txTrack, chunk, nbytes)
		p.Sleep(h.wireTime(nbytes))
		tx.End()
		txRail.sendLink.Release()
		txRail.queued--
		h.f.hub.Counter(txRail.qCtr, float64(txRail.queued))
		localDone.Trigger() // last byte has left the sender
		h.stats.BytesTx += int64(nbytes)
		h.f.hub.Counter(h.txCtr, float64(h.stats.BytesTx))
		p.Sleep(h.f.model.Latency)
		rxRail.recvLink.Acquire(p)
		// Ingress serialization: the receive link is occupied while the
		// payload streams in. Short control messages cost only their
		// header-size time.
		in := h.f.hub.Start(kind, rxRail.rxTrack, chunk, nbytes)
		in.DependsOnTask(tx.Task(), obs.DepWire)
		p.Sleep(sim.DurationOf(nbytes, h.f.model.Bandwidth) / 8)
		in.End()
		rxRail.recvLink.Release()
		rx.stats.BytesRx += int64(nbytes)
		h.f.hub.Counter(rx.rxCtr, float64(rx.stats.BytesRx))
		deliver(rx, in.Task())
	})
	return localDone
}

// headerBytes approximates the wire size of a header-only message.
const headerBytes = 64

// PostSend transmits a two-sided message carrying msg and an optional
// payload snapshot taken from payload at post time, on rail 0. The
// returned event fires at local completion (send buffer reusable). The
// remote handler is invoked when the message fully arrives; the snapshot
// goes back to the fabric's buffer pool when the handler returns.
func (h *HCA) PostSend(dst int, msg Message, payload []byte) *sim.Event {
	return h.PostSendRail(dst, msg, payload, 0)
}

// PostSendRail is PostSend on an explicit rail. Delivery order is
// guaranteed only relative to other operations on the same rail.
func (h *HCA) PostSendRail(dst int, msg Message, payload []byte, railIdx int) *sim.Event {
	snap := h.f.bufs.Get(len(payload))
	copy(snap, payload)
	h.stats.SendsPosted++
	return h.transmit(dst, headerBytes+len(snap), obs.KindSend, railIdx, obs.Span{}, -1, func(rx *HCA, _ obs.Task) {
		if rx.handler == nil {
			panic(fmt.Sprintf("ib: message for node %d dropped: no handler", rx.node))
		}
		rx.handler(h.node, msg, snap)
		h.f.bufs.Put(snap)
	})
}

// RDMAWrite transfers n bytes from local memory src into the remote region
// identified by rkey at byte offset roff on rail 0, with no receiver-side
// notification (a silent one-sided put). The source bytes are snapshotted
// at post time, modeling the HCA's DMA read; the returned event fires at
// local completion. The bytes become visible in remote memory at delivery
// time, strictly before any send posted afterwards on the same rail of
// this HCA is delivered.
func (h *HCA) RDMAWrite(dst int, src mem.Ptr, n int, rkey uint32, roff int) *sim.Event {
	return h.RDMAWriteRail(dst, src, n, rkey, roff, 0)
}

// RDMAWriteRail is RDMAWrite on an explicit rail. The FIN-after-data
// invariant holds only against sends posted on the same rail.
func (h *HCA) RDMAWriteRail(dst int, src mem.Ptr, n int, rkey uint32, roff, railIdx int) *sim.Event {
	return h.RDMAWriteRailTask(dst, src, n, rkey, roff, railIdx, obs.Span{}, -1)
}

// RDMAWriteRailTask is RDMAWriteRail with the wire tasks parented to an
// enclosing pipeline-stage span and tagged with a chunk index (see
// transmit). An inert parent and chunk -1 degrade to plain tracing.
func (h *HCA) RDMAWriteRailTask(dst int, src mem.Ptr, n int, rkey uint32, roff, railIdx int, parent obs.Span, chunk int) *sim.Event {
	// The HCA's DMA read of the source happens "at post time": the task is
	// due at the post instant, and the poster owns src until the local
	// completion event, so nothing rewrites it before the slot commits.
	snap := h.f.bufs.Get(n)
	h.f.e.TaskAt(h.f.e.Now(), func() { copy(snap, src.Bytes(n)) })
	h.stats.RDMAWrites++
	return h.transmit(dst, n, obs.KindRDMA, railIdx, parent, chunk, func(rx *HCA, wire obs.Task) {
		rx.deposit(rkey, roff, snap, railIdx, wire)
	})
}

// deposit lands an arrived RDMA write payload in the target region: a
// plain region takes a direct memory copy at delivery time; a scatter
// region routes the payload through the receiving rail's SGE unit, which
// walks the registered descriptor (see sg.go). wire is the receive-side
// wire task, threaded through so the scatter task can record its stage
// dependency.
func (h *HCA) deposit(rkey uint32, roff int, snap []byte, railIdx int, wire obs.Task) {
	reg, ok := h.regions[rkey]
	if !ok {
		panic(fmt.Sprintf("ib: RDMA write to unknown rkey %d on node %d", rkey, h.node))
	}
	if roff < 0 || roff+len(snap) > reg.len {
		panic(fmt.Sprintf("ib: RDMA write [%d,%d) outside region of %d bytes", roff, roff+len(snap), reg.len))
	}
	if reg.sc != nil {
		h.scatterDeposit(reg, roff, snap, railIdx, wire)
		return
	}
	// Bytes land in remote memory at delivery time; the receiver only
	// looks after the FIN, which trails the data on the same rail.
	dst := reg.ptr.Add(roff).Bytes(len(snap))
	h.f.e.TaskAt(h.f.e.Now(), func() {
		copy(dst, snap)
		h.f.bufs.Put(snap)
	})
}

// RDMARead fetches n bytes from the remote region identified by rkey at
// byte offset roff on node `from` into local memory dst (a one-sided get).
// The returned event fires when the data has fully landed locally. The
// remote bytes are snapshotted when the responder begins streaming, after
// the request's wire trip; the responder's send link is occupied for the
// payload, mirroring real RC read responses.
func (h *HCA) RDMARead(dst mem.Ptr, from int, rkey uint32, roff, n int) *sim.Event {
	tx := h.f.hcas[from]
	if tx == nil {
		panic(fmt.Sprintf("ib: no HCA for read target node %d", from))
	}
	if tx == h {
		panic("ib: loopback read; same-node communication does not use the fabric")
	}
	done := h.f.e.NewEvent(fmt.Sprintf("hca%d.read.done", h.node))
	h.seq++
	h.stats.RDMAReads++
	reqRail, respRail := h.railAt(0), tx.railAt(0)
	h.f.e.Spawn(fmt.Sprintf("hca%d<-%d.%d", h.node, from, h.seq), func(p *sim.Proc) {
		// Request: a header-sized message out on our send link.
		reqRail.sendLink.Acquire(p)
		reqSp := h.f.hub.Start(obs.KindRDMARead, reqRail.txTrack, -1, headerBytes)
		p.Sleep(h.wireTime(headerBytes))
		reqSp.End()
		reqRail.sendLink.Release()
		p.Sleep(h.f.model.Latency)
		// Response: the target streams the payload from its link.
		reg, ok := tx.regions[rkey]
		if !ok {
			panic(fmt.Sprintf("ib: RDMA read of unknown rkey %d on node %d", rkey, tx.node))
		}
		if roff < 0 || roff+n > reg.len {
			panic(fmt.Sprintf("ib: RDMA read [%d,%d) outside region of %d bytes", roff, roff+n, reg.len))
		}
		respRail.sendLink.Acquire(p)
		respSp := h.f.hub.Start(obs.KindRDMARead, respRail.txTrack, -1, n)
		snap := append([]byte(nil), reg.ptr.Add(roff).Bytes(n)...)
		p.Sleep(tx.wireTime(n))
		respSp.End()
		respRail.sendLink.Release()
		tx.stats.BytesTx += int64(n)
		h.f.hub.Counter(tx.txCtr, float64(tx.stats.BytesTx))
		p.Sleep(h.f.model.Latency)
		reqRail.recvLink.Acquire(p)
		inSp := h.f.hub.Start(obs.KindRDMARead, reqRail.rxTrack, -1, n)
		p.Sleep(sim.DurationOf(n, h.f.model.Bandwidth) / 8)
		inSp.End()
		reqRail.recvLink.Release()
		h.stats.BytesRx += int64(n)
		h.f.hub.Counter(h.rxCtr, float64(h.stats.BytesRx))
		copy(dst.Bytes(n), snap)
		done.Trigger()
	})
	return done
}
