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
	e     *sim.Engine
	model Model
	hcas  map[int]*HCA
	hub   *obs.Hub
	free  *transfer // recycled transfer records

	landings *landing  // recycled RDMA write landings, see deposit
	reads    *rdmaRead // recycled RDMA reads
	walks    *sgWalk   // recycled SGE unit walks, see sg.go

	bytes *mem.ByteCounters // where snapshots and landings are counted; nil: nowhere
}

// SetHub attaches an observability hub: every wire operation becomes a
// task on the sending HCA's tx track and the receiving HCA's rx track,
// and cumulative per-HCA byte counters are sampled after each transfer.
func (f *Fabric) SetHub(h *obs.Hub) { f.hub = h }

// SetByteCounters makes the fabric count the bytes its snapshots and
// landings copy in c.
func (f *Fabric) SetByteCounters(c *mem.ByteCounters) { f.bytes = c }

// NewFabric creates an empty fabric.
func NewFabric(e *sim.Engine, model Model) *Fabric {
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
		readDone: fmt.Sprintf("hca%d.read.done", node),
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

	// precomputed obs counter names
	txCtr, rxCtr string
	// precomputed names of every transfer's local-completion event and
	// every read's completion event
	txDone, readDone string
	// name of every gather's completion event, built on first use
	gatherDone string
	// recycled scatter region records, see RegisterScatterRegion
	freeScatter *scatterRegion
}

// Node returns the node ID this HCA serves.
func (h *HCA) Node() int { return h.node }

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
	reg, ok := h.regions[r.Rkey]
	if !ok {
		panic(fmt.Sprintf("ib: deregister of unknown rkey %d", r.Rkey))
	}
	delete(h.regions, r.Rkey)
	if sc := reg.sc; sc != nil {
		*sc = scatterRegion{next: h.freeScatter}
		h.freeScatter = sc
	}
}

// wireTime is the link occupancy of an n-byte transfer.
func (h *HCA) wireTime(n int) sim.Time {
	return h.f.model.PostOverhead + sim.DurationOf(n, h.f.model.Bandwidth)
}

// transmit implements the shared egress/ingress path on t, a record the
// caller took with newTransfer: n bytes go from h to node dst on rail
// railIdx of both HCAs, and done fires at local completion (the last
// byte has left the sender). done is the caller's event, re-armed here,
// or nil for a post nobody waits on, whose completion fires the record's
// own event instead; either way the firing is the same "hcaN.tx.done".
// kind classifies the operation for tracing. The caller fills in the
// record's delivery fields (see transfer) before control returns to the
// engine.
//
// parent/chunk thread pipeline identity into the trace: the tx task is a
// child of parent (typically the sender's rdma stage span) tagged with the
// chunk index, and the rx task — which cannot be contained in the sender's
// span because it outlives local completion — carries the same chunk tag
// plus an explicit wire dependency edge back to the tx task, which is how
// the critical-path analyzer crosses ranks.
func (h *HCA) transmit(t *transfer, done *sim.Event, dst int, n int, kind string, railIdx int, parent obs.Span, chunk int) {
	rx := h.f.hcas[dst]
	if rx == nil {
		panic(fmt.Sprintf("ib: no HCA for destination node %d", dst))
	}
	if rx == h {
		panic("ib: loopback transfer; same-node communication does not use the fabric")
	}
	t.h, t.rx = h, rx
	t.txRail, t.rxRail = h.railAt(railIdx), rx.railAt(railIdx)
	t.n, t.kind, t.railIdx, t.parent, t.chunk = n, kind, railIdx, parent, chunk
	if done == nil {
		done = &t.localDone
	}
	done.Reset(h.f.e, h.txDone)
	t.done = done
	t.txRail.queued++
	h.f.hub.Counter(t.txRail.qCtr, float64(t.txRail.queued))
	h.f.e.CallAt(h.f.e.Now(), t.startFn)
}

// transfer is one wire transfer in flight. The HCA hardware is modeled
// as a state machine, not a process: each step below is a scheduled call
// in the (time, seq) slot where a transfer process would have resumed —
// start where it would have started, wire after the send link is
// granted, sent after the wire time, arrive after the latency, ingress
// after the receive link is granted, and landed after the ingress time.
// Records are pooled per fabric, with their step method values bound once.
// A record's own completion event is only ever fired, never handed out,
// so no caller holds a pointer into a recycled record.
type transfer struct {
	h, rx          *HCA
	txRail, rxRail *rail
	n              int
	kind           string
	railIdx        int
	parent         obs.Span
	chunk          int
	localDone      sim.Event  // completion of a post nobody waits on
	done           *sim.Event // the event sent fires: localDone or the caller's
	tx, in         obs.Span

	// Delivery: a two-sided send (send set) hands msg and snap to the
	// receiver's handler; an RDMA write deposits snap at rkey+roff, or
	// nothing when it moves no bytes (snap and src nil).
	send bool
	msg  Message
	snap []byte
	rkey uint32
	roff int
	src  mem.Ptr // an RDMA write's source, read into snap at post time

	startFn, wireFn, sentFn, arriveFn, ingressFn, landedFn, snapFn func()
	next                                                           *transfer
}

// newTransfer takes a record from the fabric's pool.
func (f *Fabric) newTransfer() *transfer {
	t := f.free
	if t == nil {
		t = &transfer{}
		t.startFn, t.wireFn, t.sentFn = t.start, t.wire, t.sent
		t.arriveFn, t.ingressFn, t.landedFn = t.arrive, t.ingress, t.landed
		t.snapFn = t.snapshot
		return t
	}
	f.free = t.next
	t.next = nil
	return t
}

func (t *transfer) start() { t.txRail.sendLink.AcquireThen(t.wireFn) }

func (t *transfer) wire() {
	t.tx = t.h.f.hub.StartChild(t.parent, t.kind, t.txRail.txTrack, t.chunk, t.n)
	t.h.f.e.CallAt(t.h.f.e.Now()+t.h.wireTime(t.n), t.sentFn)
}

func (t *transfer) sent() {
	h := t.h
	t.tx.End()
	t.txRail.sendLink.Release()
	t.txRail.queued--
	h.f.hub.Counter(t.txRail.qCtr, float64(t.txRail.queued))
	done := t.done
	t.done = nil
	done.Trigger() // last byte has left the sender
	h.stats.BytesTx += int64(t.n)
	h.f.hub.Counter(h.txCtr, float64(h.stats.BytesTx))
	h.f.e.CallAt(h.f.e.Now()+h.f.model.Latency, t.arriveFn)
}

func (t *transfer) arrive() { t.rxRail.recvLink.AcquireThen(t.ingressFn) }

// ingress occupies the receive link while the payload streams in. Short
// control messages cost only their header-size time.
func (t *transfer) ingress() {
	t.in = t.h.f.hub.Start(t.kind, t.rxRail.rxTrack, t.chunk, t.n)
	t.in.DependsOnTask(t.tx.Task(), obs.DepWire)
	t.h.f.e.CallAt(t.h.f.e.Now()+sim.DurationOf(t.n, t.h.f.model.Bandwidth)/8, t.landedFn)
}

// landed completes the transfer at the receiver: the record goes back to
// the pool, then the payload is delivered, so a handler that posts a
// reply can reuse it.
func (t *transfer) landed() {
	f, rx := t.h.f, t.rx
	t.in.End()
	t.rxRail.recvLink.Release()
	rx.stats.BytesRx += int64(t.n)
	f.hub.Counter(rx.rxCtr, float64(rx.stats.BytesRx))
	from, wire, n := t.h.node, t.in.Task(), t.n
	send, msg, snap, rkey, roff, railIdx := t.send, t.msg, t.snap, t.rkey, t.roff, t.railIdx
	*t = transfer{
		startFn: t.startFn, wireFn: t.wireFn, sentFn: t.sentFn,
		arriveFn: t.arriveFn, ingressFn: t.ingressFn, landedFn: t.landedFn,
		snapFn: t.snapFn, next: f.free,
	}
	f.free = t
	if !send {
		rx.deposit(rkey, roff, n, snap, railIdx, wire)
		return
	}
	if rx.handler == nil {
		panic(fmt.Sprintf("ib: message for node %d dropped: no handler", rx.node))
	}
	rx.handler(from, msg, snap)
	mem.PutBytes(snap)
}

// headerBytes approximates the wire size of a header-only message.
const headerBytes = 64

// PostSendRailInto transmits a two-sided message carrying msg and an
// optional payload snapshot taken from payload at post time, on rail
// railIdx. Delivery order is guaranteed only relative to other operations
// on the same rail. The remote handler is invoked when the message fully
// arrives; the snapshot goes back to the recycler (mem.PutBytes) when the
// handler returns. done, an event the caller holds, is re-armed and fires
// at local completion (send buffer reusable); the caller must not reuse
// it before it has fired and its waiters have run. Protocol control
// messages (RTS, CTS, FIN) pass nil: nothing waits for their local
// completion.
func (h *HCA) PostSendRailInto(done *sim.Event, dst int, msg Message, payload []byte, railIdx int) {
	snap := mem.GetBytes(len(payload))
	h.f.bytes.Copy(snap, payload)
	h.stats.SendsPosted++
	t := h.f.newTransfer()
	h.transmit(t, done, dst, headerBytes+len(snap), obs.KindSend, railIdx, obs.Span{}, -1)
	t.send, t.msg, t.snap = true, msg, snap
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
	done := new(sim.Event)
	h.RDMAWriteRailInto(done, dst, src, n, rkey, roff, railIdx, obs.Span{}, -1)
	return done
}

// RDMAWriteRailInto is RDMAWriteRail with the wire tasks parented to an
// enclosing pipeline-stage span and tagged with a chunk index (see
// transmit), completing done, an event the caller holds: it is re-armed
// here and fires at local completion. An inert parent and chunk -1
// degrade to plain tracing.
func (h *HCA) RDMAWriteRailInto(done *sim.Event, dst int, src mem.Ptr, n int, rkey uint32, roff, railIdx int, parent obs.Span, chunk int) {
	h.rdmaWrite(done, dst, src, n, rkey, roff, railIdx, parent, chunk)
}

// RDMAWriteNoBytesRailInto is RDMAWriteRailInto for a write whose bytes
// the target already holds, so nobody reads what it would deposit: the
// transfer is costed, serialized, traced and counted as an n-byte write,
// and its post and delivery calls keep their slots, but it takes no
// snapshot at post and deposits nothing at delivery. The target region
// and range are still checked at delivery; a scatter region, which has
// to see the bytes, refuses it.
func (h *HCA) RDMAWriteNoBytesRailInto(done *sim.Event, dst, n int, rkey uint32, roff, railIdx int, parent obs.Span, chunk int) {
	h.rdmaWrite(done, dst, mem.Ptr{}, n, rkey, roff, railIdx, parent, chunk)
}

// rdmaWrite posts an n-byte write of src, or of no bytes when src is nil.
func (h *HCA) rdmaWrite(done *sim.Event, dst int, src mem.Ptr, n int, rkey uint32, roff, railIdx int, parent obs.Span, chunk int) {
	// The HCA's DMA read of the source happens "at post time": the call is
	// due at the post instant, and the poster owns src until the local
	// completion event, so nothing rewrites it before the slot commits.
	t := h.f.newTransfer()
	if !src.IsNil() {
		t.snap, t.src = mem.GetBytes(n), src
	}
	h.f.e.CallAt(h.f.e.Now(), t.snapFn)
	h.stats.RDMAWrites++
	h.transmit(t, done, dst, n, obs.KindRDMA, railIdx, parent, chunk)
	t.rkey, t.roff = rkey, roff
}

// snapshot is the DMA read of an RDMA write's source: a call due at the
// post instant, long before the record can be recycled at landed. A
// write of no bytes reads nothing.
func (t *transfer) snapshot() {
	if t.snap != nil {
		t.h.f.bytes.Copy(t.snap, t.src.Bytes(len(t.snap)))
	}
}

// deposit lands an arrived n-byte RDMA write payload in the target
// region: a plain region takes a direct memory copy at delivery time; a
// scatter region routes the payload through the receiving rail's SGE
// unit, which walks the registered descriptor (see sg.go). A nil snap is
// a write of no bytes, whose landing copies nothing. wire is the
// receive-side wire task, threaded through so the scatter task can
// record its stage dependency.
func (h *HCA) deposit(rkey uint32, roff, n int, snap []byte, railIdx int, wire obs.Task) {
	reg, ok := h.regions[rkey]
	if !ok {
		panic(fmt.Sprintf("ib: RDMA write to unknown rkey %d on node %d", rkey, h.node))
	}
	if roff < 0 || roff+n > reg.len {
		panic(fmt.Sprintf("ib: RDMA write [%d,%d) outside region of %d bytes", roff, roff+n, reg.len))
	}
	if reg.sc != nil {
		if snap == nil && n > 0 {
			panic(fmt.Sprintf("ib: write of no bytes to scatter region rkey %d on node %d", rkey, h.node))
		}
		h.scatterDeposit(reg, roff, snap, railIdx, wire)
		return
	}
	// Bytes land in remote memory at delivery time; the receiver only
	// looks after the FIN, which trails the data on the same rail.
	l := h.f.landings
	if l == nil {
		l = &landing{f: h.f}
		l.landFn = l.land
	} else {
		h.f.landings = l.next
	}
	if snap != nil {
		l.dst, l.snap = reg.ptr.Add(roff).Bytes(n), snap
	}
	h.f.e.CallAt(h.f.e.Now(), l.landFn)
}

// landing is an RDMA write's payload on its way into a plain region: the
// copy is a call at the delivery instant. Records are pooled per fabric,
// with their step bound once.
type landing struct {
	f         *Fabric
	dst, snap []byte
	landFn    func()
	next      *landing
}

// land copies the payload into place, recycles the snapshot and returns
// the record to the pool.
func (l *landing) land() {
	l.f.bytes.Copy(l.dst, l.snap)
	mem.PutBytes(l.snap)
	l.dst, l.snap = nil, nil
	l.next, l.f.landings = l.f.landings, l
}

// RDMAReadInto fetches n bytes from the remote region identified by rkey
// at byte offset roff on node `from` into local memory dst (a one-sided
// get). done, an event the caller holds, is re-armed here as
// "hcaN.read.done" and fires when the data has fully landed locally; the
// caller must not reuse it before it has fired and its waiters have run.
// The remote bytes are snapshotted when the responder begins streaming,
// after the request's wire trip; the responder's send link is occupied
// for the payload, mirroring real RC read responses.
func (h *HCA) RDMAReadInto(done *sim.Event, dst mem.Ptr, from int, rkey uint32, roff, n int) {
	tx := h.f.hcas[from]
	if tx == nil {
		panic(fmt.Sprintf("ib: no HCA for read target node %d", from))
	}
	if tx == h {
		panic("ib: loopback read; same-node communication does not use the fabric")
	}
	r := h.f.reads
	if r == nil {
		r = &rdmaRead{}
		r.startFn, r.requestFn, r.requestedFn = r.start, r.request, r.requested
		r.arrivedFn, r.respondFn, r.respondedFn = r.arrived, r.respond, r.responded
		r.arriveFn, r.ingressFn, r.landedFn = r.arrive, r.ingress, r.landed
	} else {
		h.f.reads = r.next
		r.next = nil
	}
	r.h, r.tx, r.reqRail, r.respRail = h, tx, h.railAt(0), tx.railAt(0)
	r.dst, r.rkey, r.roff, r.n = dst, rkey, roff, n
	done.Reset(h.f.e, h.readDone)
	r.done = done
	h.stats.RDMAReads++
	h.f.e.CallAt(h.f.e.Now(), r.startFn)
}

// rdmaRead is one RDMA read in flight: like a transfer, a chain of
// scheduled calls, each where a process performing the read would have
// resumed. Records are pooled per fabric, with their steps bound once.
type rdmaRead struct {
	h, tx               *HCA // reader and target
	reqRail, respRail   *rail
	dst                 mem.Ptr
	rkey                uint32
	roff, n             int
	done                *sim.Event
	reg                 Region
	snap                []byte
	reqSp, respSp, inSp obs.Span

	startFn, requestFn, requestedFn, arrivedFn, respondFn func()
	respondedFn, arriveFn, ingressFn, landedFn            func()
	next                                                  *rdmaRead
}

func (r *rdmaRead) after(d sim.Time, fn func()) { r.h.f.e.CallAt(r.h.f.e.Now()+d, fn) }

func (r *rdmaRead) start() { r.reqRail.sendLink.AcquireThen(r.requestFn) }

// request sends a header-sized message out on the reader's send link.
func (r *rdmaRead) request() {
	r.reqSp = r.h.f.hub.Start(obs.KindRDMARead, r.reqRail.txTrack, -1, headerBytes)
	r.after(r.h.wireTime(headerBytes), r.requestedFn)
}

func (r *rdmaRead) requested() {
	r.reqSp.End()
	r.reqRail.sendLink.Release()
	r.after(r.h.f.model.Latency, r.arrivedFn)
}

func (r *rdmaRead) arrived() {
	reg, ok := r.tx.regions[r.rkey]
	if !ok {
		panic(fmt.Sprintf("ib: RDMA read of unknown rkey %d on node %d", r.rkey, r.tx.node))
	}
	if r.roff < 0 || r.roff+r.n > reg.len {
		panic(fmt.Sprintf("ib: RDMA read [%d,%d) outside region of %d bytes", r.roff, r.roff+r.n, reg.len))
	}
	r.reg = reg
	r.respRail.sendLink.AcquireThen(r.respondFn)
}

// respond streams the payload from the target's send link.
func (r *rdmaRead) respond() {
	r.respSp = r.h.f.hub.Start(obs.KindRDMARead, r.respRail.txTrack, -1, r.n)
	r.snap = mem.GetBytes(r.n)
	r.h.f.bytes.Copy(r.snap, r.reg.ptr.Add(r.roff).Bytes(r.n))
	r.after(r.tx.wireTime(r.n), r.respondedFn)
}

func (r *rdmaRead) responded() {
	tx := r.tx
	r.respSp.End()
	r.respRail.sendLink.Release()
	tx.stats.BytesTx += int64(r.n)
	r.h.f.hub.Counter(tx.txCtr, float64(tx.stats.BytesTx))
	r.after(r.h.f.model.Latency, r.arriveFn)
}

func (r *rdmaRead) arrive() { r.reqRail.recvLink.AcquireThen(r.ingressFn) }

func (r *rdmaRead) ingress() {
	r.inSp = r.h.f.hub.Start(obs.KindRDMARead, r.reqRail.rxTrack, -1, r.n)
	r.after(sim.DurationOf(r.n, r.h.f.model.Bandwidth)/8, r.landedFn)
}

// landed copies the payload into place and returns the record to the
// pool before firing the read's completion.
func (r *rdmaRead) landed() {
	h, f := r.h, r.h.f
	r.inSp.End()
	r.reqRail.recvLink.Release()
	h.stats.BytesRx += int64(r.n)
	f.hub.Counter(h.rxCtr, float64(h.stats.BytesRx))
	f.bytes.Copy(r.dst.Bytes(r.n), r.snap)
	mem.PutBytes(r.snap)
	done := r.done
	*r = rdmaRead{
		startFn: r.startFn, requestFn: r.requestFn, requestedFn: r.requestedFn,
		arrivedFn: r.arrivedFn, respondFn: r.respondFn, respondedFn: r.respondedFn,
		arriveFn: r.arriveFn, ingressFn: r.ingressFn, landedFn: r.landedFn,
		next: f.reads,
	}
	f.reads = r
	done.Trigger()
}
