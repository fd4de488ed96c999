package mpi

import (
	"fmt"

	"mv2sim/internal/datatype"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Wire headers. All protocol headers travel as two-sided ib sends; bulk
// data travels as eager payload, one-sided RDMA writes into announced
// slots, or (RGET) RDMA reads of an advertised region.

// hdrKind says which protocol message a header carries.
type hdrKind uint8

const (
	hdrEager  hdrKind = iota // eager data: the envelope, payload inline
	hdrRTS                   // put rendezvous request-to-send
	hdrRTSGet                // get rendezvous request-to-send with the rkey to read
	hdrCTS                   // clear-to-send: geometry and a batch of slots
	hdrFIN                   // one chunk has landed in its slot
	hdrDone                  // get rendezvous: the receiver has read it all
)

// header is one protocol message. Headers come from a free list per
// world and go to ib by pointer — a pointer held in an ib.Message does
// not allocate — and handleMessage puts each back once it has copied its
// fields out, so no post allocates.
type header struct {
	kind                    hdrKind
	held                    bool   // CTS: the receiver holds the offered packed buffer
	rkey                    uint32 // get RTS
	tag, ctx, size          int    // eager, RTS, get RTS: the envelope but its source, handleMessage's from
	sendID, recvID          int    // the sender's and the receiver's request IDs
	chunk                   int    // FIN
	totalChunks, chunkBytes int    // CTS
	slots                   []Slot // CTS: the poster's slice, read on delivery
	packed                  []byte // RTS: the sender's packed buffer, offered to the receiver
	next                    *header
}

// post sends h to rank dst on rail through a pooled header, completing
// done as ib.HCA.PostSendRailInto does (nil: nobody waits).
func (r *Rank) post(done *sim.Event, dst int, h header, payload []byte, rail int) {
	p := r.w.freeHdrs
	if p == nil {
		p = new(header)
	} else {
		r.w.freeHdrs = p.next
	}
	*p = h
	r.hca.PostSendRailInto(done, dst, p, payload, rail)
}

// Slot is one chunk's landing area announced in a CTS: chunk index,
// rkey of the registered region and the byte offset/length within it.
// Chunk i of the packed stream covers bytes [i*ChunkBytes, i*ChunkBytes+Len).
type Slot struct {
	Chunk int
	Rkey  uint32
	Off   int
	Len   int
}

// inbound is an arrived-but-unmatched message.
type inbound struct {
	from, tag, ctx, size int
	payload              []byte // eager data (a pooled copy); nil for rendezvous
	sendID               int    // rendezvous only
	isRts                bool
	isGet                bool   // rendezvous RTS advertises an rkey to read
	rkey                 uint32 // get protocol only
	packed               []byte // put RTS: the sender's offered packed buffer, or nil
}

// GPUTransport is the extension point for device-memory buffers. The
// implementation (internal/core) owns all GPU-side staging; the matching,
// wire protocol and completion plumbing stay in this package. All methods
// are invoked in engine context or from a rank process and must not block
// the caller: long-running work goes on in the transport, as scheduled
// continuations (eager staging and the rendezvous pipeline). Once the
// transport has completed a request (SendPacked's post included) it must
// not touch it again: a blocking call recycles its request as soon as it
// has completed.
type GPUTransport interface {
	// StageToHost packs the request's device buffer into host bytes and
	// hands them to req.SendPacked when the packed data is ready. Used
	// for eager-size sends and for self-sends. SendPacked copies what it
	// keeps, so the packed bytes may be recycled once it returns.
	StageToHost(req *Request)
	// DeliverFromHost unpacks packed bytes into the request's device
	// buffer and calls req.CompleteRecv when done. Used for eager-size
	// receives and self-receives. packed comes from mem.GetBytes and
	// the transport owns it: it must hand it back with mem.PutBytes once
	// it has read the bytes.
	DeliverFromHost(req *Request, packed []byte)
	// StartRendezvousSend drives the sender side of a large transfer from
	// device memory: it must send the RTS via req.Rank().SendRTS, produce
	// packed chunks, place them with req.Rank().RDMAChunkRailInto (or the
	// NIC gather or no-bytes form), and finally call req.CompleteSend.
	// The RTS may offer the receiver the transfer's packed buffer; the
	// sender owns it until a CTS says the receiver holds it
	// (req.PeerHoldsPacked), and then places every chunk with
	// RDMAChunkNoBytesRailInto.
	StartRendezvousSend(req *Request)
	// StartRendezvousRecv drives the receiver side of a large transfer
	// into device memory: it must announce landing slots via
	// req.Rank().SendCTS, consume one FIN per chunk (req.AwaitFinThen),
	// move the data into the device buffer, and finally call
	// req.CompleteRecv. packed is the packed buffer the sender's RTS
	// offered, or nil. A receiver that takes it says so in every CTS,
	// owns it from then on, reads a chunk's bytes from it only once the
	// chunk's FIN has arrived, and hands it to the recycler when done.
	StartRendezvousRecv(req *Request, packed []byte)
}

func (r *Rank) transport() GPUTransport {
	t := r.w.transport
	if t == nil {
		panic(fmt.Sprintf("mpi rank %d: device buffer passed to a world without a GPU transport "+
			"(a non-CUDA-aware MPI cannot dereference device pointers)", r.rank))
	}
	return t
}

// checkType validates a buffer/type/count triple at the API boundary.
func checkType(dt *datatype.Datatype, count int) {
	if dt == nil {
		panic("mpi: nil datatype")
	}
	if !dt.Committed() {
		panic("mpi: datatype " + dt.Name() + " used before Commit (MPI_ERR_TYPE)")
	}
	if count < 0 {
		panic("mpi: negative count")
	}
}

// ---------------------------------------------------------------------------
// Send side

// Isend starts a non-blocking send of count elements of dt at buf to
// (dest, tag) and returns the request (MPI_Isend).
func (r *Rank) Isend(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) *Request {
	return r.isend(buf, count, dt, dest, tag, ctxPt2pt)
}

// Send is the blocking form (MPI_Send): it returns when the send buffer is
// reusable (eager: buffered on the wire; rendezvous: fully transferred).
// Its request is never seen by the caller, so it goes back to the rank's
// free list.
func (r *Rank) Send(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) {
	r.waitBlocking(r.isend(buf, count, dt, dest, tag, ctxPt2pt))
}

func (r *Rank) isend(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag, ctx int) *Request {
	r.callOverhead()
	checkType(dt, count)
	if dest == ProcNull {
		return r.nullRequest(SendReq)
	}
	if dest < 0 || dest >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi rank %d: send to invalid rank %d", r.rank, dest))
	}
	q := r.newRequest(SendReq, buf, dt, count, dest, tag, ctx)
	r.stats.BytesSent += int64(q.size)
	q.span = r.w.hub.Start(sendKind(r, q), r.obsTrack, -1, q.size)

	switch {
	case dest == r.rank:
		r.selfSend(q)
	case q.size == 0:
		// Zero-byte messages always travel eagerly, device or host.
		q.SendPacked(nil)
		r.stats.EagerSent++
	case buf.IsDevice():
		t := r.transport()
		if q.size <= r.w.cfg.EagerLimit {
			t.StageToHost(q)
			r.stats.EagerSent++
		} else {
			t.StartRendezvousSend(q)
			r.stats.RndvSent++
		}
	case q.size <= r.w.cfg.EagerLimit:
		r.Proc().Sleep(r.hostPackCost(dt, count))
		payload := mem.GetBytes(q.size)
		dt.PackBytes(payload, buf, count)
		q.SendPacked(payload)
		mem.PutBytes(payload) // SendPacked took its snapshot
		r.stats.EagerSent++
	default:
		r.startHostRendezvous(q)
		r.stats.RndvSent++
	}
	return q
}

// sendKind classifies a send request for tracing.
func sendKind(r *Rank, q *Request) string {
	switch {
	case q.peer == r.rank:
		return obs.KindSendSelf
	case q.size > r.w.cfg.EagerLimit:
		return obs.KindSendRndv
	default:
		return obs.KindSendEager
	}
}

// startHostRendezvous dispatches a large host-buffer send onto the
// configured protocol.
func (r *Rank) startHostRendezvous(q *Request) {
	if r.w.cfg.Rendezvous == RendezvousGet {
		r.sendHostGet(q)
		return
	}
	r.SendRTS(q, nil)
	r.w.host.sendData(q)
}

// selfSend delivers a message to this same rank without touching the
// fabric: SendPacked matches the packed bytes through the normal queues,
// which copy them, so the packed buffer is free again once it returns.
func (r *Rank) selfSend(q *Request) {
	if q.size == 0 {
		q.SendPacked(nil)
		return
	}
	if q.buf.IsDevice() {
		r.transport().StageToHost(q)
		return
	}
	r.Proc().Sleep(r.hostPackCost(q.dt, q.count))
	payload := mem.GetBytes(q.size)
	q.dt.PackBytes(payload, q.buf, q.count)
	q.SendPacked(payload)
	mem.PutBytes(payload)
}

// SendPacked sends an eager request's packed bytes: a self-send is
// matched at once and completes; any other send is posted to its
// destination and completes when the HCA has read the bytes. packed is
// only read during the call. GPU transports call it from StageToHost.
func (q *Request) SendPacked(packed []byte) {
	r := q.r
	if q.peer == r.rank {
		r.dispatchEager(r.rank, q.tag, q.ctx, q.size, packed)
		q.CompleteSend()
		return
	}
	// The post snapshots packed, which the caller then recycles.
	r.post(&q.ev, q.peer, header{kind: hdrEager, tag: q.tag, ctx: q.ctx, size: q.size}, packed, 0)
	if q.completeSendFn == nil {
		q.completeSendFn = q.CompleteSend
	}
	q.ev.OnTrigger(q.completeSendFn)
}

// SendRTS posts the rendezvous request-to-send for a send request. GPU
// transports call this before (or while) packing begins, so the handshake
// overlaps datatype processing as in the paper's design. packed, when not
// nil, is the transfer's packed buffer offered to the receiver (see
// GPUTransport); a host sender offers none.
func (r *Rank) SendRTS(q *Request, packed []byte) {
	r.w.hub.Instant(obs.KindRTS, r.obsTrack, -1, q.size)
	r.post(nil, q.peer, header{kind: hdrRTS, tag: q.tag, ctx: q.ctx, size: q.size, sendID: q.id, packed: packed}, nil, 0)
}

// slotEntry is one chunk's landing slot on the sender, once announced.
type slotEntry struct {
	s  Slot
	ok bool
}

// AwaitCTS blocks until the first CTS for this send arrives and returns
// the transfer geometry the receiver chose. It is for the process
// references of the protocol records in tests (here and in internal/core);
// library code waits with AwaitCTSThen.
func (q *Request) AwaitCTS(p *sim.Proc) (totalChunks, chunkBytes int) {
	for q.totalChunks == 0 {
		p.Wait(q.slotEvent())
	}
	return q.totalChunks, q.chunkBytes
}

// AwaitCTSThen is AwaitCTS for a continuation in engine context: fn runs
// once the first CTS has arrived — at once if it has, otherwise in the
// slot where a process blocked in AwaitCTS would resume, after the same
// "rankN.reqM.cts" firing. fn reads the geometry with CTSGeometry.
func (q *Request) AwaitCTSThen(fn func()) {
	if q.totalChunks != 0 {
		fn()
		return
	}
	q.slotEvent().Then(fn) // every CTS sets the geometry
}

// CTSGeometry returns the transfer geometry the first CTS announced, or
// zeros before it has arrived.
func (q *Request) CTSGeometry() (totalChunks, chunkBytes int) { return q.totalChunks, q.chunkBytes }

// PeerHoldsPacked reports whether the receiver's CTS said it holds the
// packed buffer the RTS offered, so the chunk writes need carry no bytes.
func (q *Request) PeerHoldsPacked() bool { return q.peerHolds }

// AwaitSlot blocks until the landing slot for the given chunk has been
// announced. Like AwaitCTS it is for test references; library code
// waits with AwaitSlotThen.
func (q *Request) AwaitSlot(p *sim.Proc, chunk int) Slot {
	for {
		if s, ok := q.slot(chunk); ok {
			return s
		}
		p.Wait(q.slotEvent())
	}
}

// AwaitSlotThen is AwaitSlot for a continuation, like AwaitCTSThen: fn
// runs once chunk's landing slot has been announced, and reads it with
// Slot. Like AwaitSlot, it waits again when a CTS batch does not
// announce the chunk.
func (q *Request) AwaitSlotThen(chunk int, fn func()) {
	if _, ok := q.slot(chunk); ok {
		fn()
		return
	}
	q.slotChunk, q.slotFn = chunk, fn
	if q.slotRetryFn == nil {
		q.slotRetryFn = q.slotRetry
	}
	q.slotEvent().Then(q.slotRetryFn)
}

func (q *Request) slotRetry() {
	fn := q.slotFn
	q.slotFn = nil
	q.AwaitSlotThen(q.slotChunk, fn)
}

// Slot returns the announced landing slot of chunk; it panics if the
// slot has not been announced yet.
func (q *Request) Slot(chunk int) Slot {
	s, ok := q.slot(chunk)
	if !ok {
		panic(fmt.Sprintf("mpi rank %d: slot of chunk %d read before its CTS", q.r.rank, chunk))
	}
	return s
}

func (q *Request) slot(chunk int) (Slot, bool) {
	if chunk < 0 || chunk >= len(q.slots) {
		return Slot{}, false
	}
	e := q.slots[chunk]
	return e.s, e.ok
}

// slotEvent returns the event the next CTS batch fires, arming it for
// the first waiter since the last batch.
func (q *Request) slotEvent() *sim.Event {
	if !q.slotWait {
		q.ev.ResetNumberedSuffix(q.r.w.e, q.r.reqName, q.id, ".cts")
		q.slotWait = true
	}
	return &q.ev
}

// RDMAChunkRailInto places one packed chunk into its announced slot on an
// HCA rail and posts the chunk's FIN message behind it (ordered delivery
// makes the FIN arrive after the data). done, an event the caller holds,
// fires at local completion, after which the source buffer is reusable
// (see ib.HCA.RDMAWriteRailInto). The data write and its FIN travel on
// the same rail — wire FIFO ordering holds only per rail, so posting
// them on different rails would let the FIN overtake its data. FINs from
// different rails may arrive in any interleaving; the receiver must not
// assume chunk order. The chunk's wire tasks and FIN
// marker are parented under sp, the sender's rdma stage span, so the
// critical-path analyzer can follow chunk identity across the fabric; an
// inert span degrades to plain tracing.
func (r *Rank) RDMAChunkRailInto(done *sim.Event, q *Request, s Slot, src mem.Ptr, n, rail int, sp obs.Span) {
	r.checkChunk(s, n)
	r.hca.RDMAWriteRailInto(done, q.peer, src, n, s.Rkey, s.Off, rail, sp, s.Chunk)
	r.postFIN(q.peer, q.peerID, s.Chunk, n, rail, sp)
}

// RDMAChunkNoBytesRailInto is RDMAChunkRailInto for a receiver that holds
// the transfer's packed buffer (PeerHoldsPacked): the write and its FIN
// take the same rails, slots and wire time, but the write carries no
// bytes (ib.HCA.RDMAWriteNoBytesRailInto).
func (r *Rank) RDMAChunkNoBytesRailInto(done *sim.Event, q *Request, s Slot, n, rail int, sp obs.Span) {
	r.checkChunk(s, n)
	r.hca.RDMAWriteNoBytesRailInto(done, q.peer, n, s.Rkey, s.Off, rail, sp, s.Chunk)
	r.postFIN(q.peer, q.peerID, s.Chunk, n, rail, sp)
}

func (r *Rank) checkChunk(s Slot, n int) {
	if n != s.Len {
		panic(fmt.Sprintf("mpi: chunk %d length %d does not match slot length %d", s.Chunk, n, s.Len))
	}
}

// postFIN posts the FIN of an n-byte chunk to receive recvID on rank
// peer, behind its data on the same rail.
func (r *Rank) postFIN(peer, recvID, chunk, n, rail int, sp obs.Span) {
	r.w.hub.InstantChild(sp, obs.KindFIN, r.obsTrack, chunk, n)
	r.post(nil, peer, header{kind: hdrFIN, recvID: recvID, chunk: chunk}, nil, rail)
}

// RDMANicChunkRailInto places one chunk into its announced slot with the
// HCA's scatter/gather unit walking the datatype in place of a packed
// source buffer (ib.RDMAWriteGatherRailInto), completing done. The gather
// delays the wire post by the SGE engine time, so the FIN cannot be
// posted here at call time — it would overtake the data on the rail
// FIFO. Instead it rides the onWirePosted hook, which the HCA invokes
// synchronously right after posting the data transfer, restoring the
// exact post order RDMAChunkRailInto gets for free.
func (r *Rank) RDMANicChunkRailInto(done *sim.Event, q *Request, s Slot, sg ib.SGDesc, rail int, sp obs.Span) {
	r.checkChunk(s, sg.N)
	f := r.finFree
	if f == nil {
		f = &nicFIN{r: r}
		f.postFn = f.post
	} else {
		r.finFree = f.next
		f.next = nil
	}
	f.peer, f.recvID, f.chunk, f.n, f.rail, f.sp = q.peer, q.peerID, s.Chunk, sg.N, rail, sp
	r.hca.RDMAWriteGatherRailInto(done, q.peer, sg, s.Rkey, s.Off, rail, sp, s.Chunk, f.postFn)
}

// nicFIN is the FIN of a NIC-gathered chunk, waiting for the gather to
// post the data: a pooled per-rank record with its step bound once.
type nicFIN struct {
	r                            *Rank
	peer, recvID, chunk, n, rail int
	sp                           obs.Span
	postFn                       func()
	next                         *nicFIN
}

// post posts the FIN right behind its chunk's data and returns the
// record to the pool.
func (f *nicFIN) post() {
	r := f.r
	r.postFIN(f.peer, f.recvID, f.chunk, f.n, f.rail, f.sp)
	f.sp = obs.Span{}
	f.next, r.finFree = r.finFree, f
}

// ---------------------------------------------------------------------------
// Receive side

// Irecv posts a non-blocking receive (MPI_Irecv). source may be AnySource
// and tag may be AnyTag.
func (r *Rank) Irecv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) *Request {
	return r.irecv(buf, count, dt, source, tag, ctxPt2pt)
}

// Recv is the blocking form (MPI_Recv). Like Send, it recycles its
// request.
func (r *Rank) Recv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) Status {
	return r.waitBlocking(r.irecv(buf, count, dt, source, tag, ctxPt2pt))
}

func (r *Rank) irecv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag, ctx int) *Request {
	r.callOverhead()
	checkType(dt, count)
	if source == ProcNull {
		return r.nullRequest(RecvReq)
	}
	q := r.newRequest(RecvReq, buf, dt, count, source, tag, ctx)
	q.span = r.w.hub.Start(obs.KindRecv, r.obsTrack, -1, q.size)

	// Try the unexpected queue first, in arrival order.
	for i, in := range r.unexpected {
		if !matches(source, tag, ctx, in.from, in.tag, in.ctx) {
			continue
		}
		// Zero the vacated tail slot: the array must not keep a recycled
		// payload alive.
		last := len(r.unexpected) - 1
		copy(r.unexpected[i:], r.unexpected[i+1:])
		r.unexpected[last] = inbound{}
		r.unexpected = r.unexpected[:last]
		switch {
		case in.isRts && in.isGet:
			r.startRecvGet(q, in.from, in.tag, in.size, in.sendID, in.rkey)
		case in.isRts:
			r.startRecvData(q, in.from, in.tag, in.size, in.sendID, in.packed)
		default:
			r.deliverEager(q, in.from, in.tag, in.size, in.payload)
			mem.PutBytes(in.payload)
		}
		return q
	}
	r.posted = append(r.posted, q)
	return q
}

// matches applies MPI matching rules: context must agree; source and tag
// match directly or through wildcards on the posted side.
func matches(wantSrc, wantTag, wantCtx, from, tag, ctx int) bool {
	if wantCtx != ctx {
		return false
	}
	if wantSrc != AnySource && wantSrc != from {
		return false
	}
	if wantTag != AnyTag && wantTag != tag {
		return false
	}
	return true
}

// handleMessage is the HCA upcall: it runs in engine context on every
// arriving protocol message. The header goes back to the free list
// before the message is acted on.
func (r *Rank) handleMessage(from int, msg ib.Message, payload []byte) {
	p, ok := msg.(*header)
	if !ok {
		panic(fmt.Sprintf("mpi rank %d: unknown message %T", r.rank, msg))
	}
	m := *p
	*p = header{next: r.w.freeHdrs}
	r.w.freeHdrs = p
	switch m.kind {
	case hdrEager:
		r.dispatchEager(from, m.tag, m.ctx, m.size, payload)
	case hdrRTS:
		r.dispatchRTS(from, &m)
	case hdrRTSGet:
		r.dispatchRTSGet(from, &m)
	case hdrDone:
		q := r.reqs[m.sendID]
		if q == nil {
			panic(fmt.Sprintf("mpi rank %d: DONE for unknown send %d", r.rank, m.sendID))
		}
		r.getSent(q)
	case hdrCTS:
		q := r.reqs[m.sendID]
		if q == nil {
			panic(fmt.Sprintf("mpi rank %d: CTS for unknown send %d", r.rank, m.sendID))
		}
		q.peerID = m.recvID
		q.totalChunks = m.totalChunks
		q.chunkBytes = m.chunkBytes
		q.peerHolds = m.held
		if len(q.slots) == 0 { // the first CTS; a recycled request keeps its array
			if cap(q.slots) < m.totalChunks {
				q.slots = make([]slotEntry, m.totalChunks)
			}
			q.slots = q.slots[:m.totalChunks]
			clear(q.slots)
		}
		for _, s := range m.slots {
			if s.Chunk < 0 || s.Chunk >= len(q.slots) {
				panic(fmt.Sprintf("mpi rank %d: CTS announces chunk %d of %d", r.rank, s.Chunk, len(q.slots)))
			}
			q.slots[s.Chunk] = slotEntry{s, true}
		}
		if q.slotWait {
			q.slotWait = false
			q.ev.Trigger()
		}
	case hdrFIN:
		q := r.reqs[m.recvID]
		if q == nil {
			panic(fmt.Sprintf("mpi rank %d: FIN for unknown recv %d", r.rank, m.recvID))
		}
		q.finQ.Put(m.chunk)
	}
}

func (r *Rank) dispatchEager(from, tag, ctx, size int, payload []byte) {
	r.stats.EagerRecvd++
	if q := r.matchPosted(from, tag, ctx); q != nil {
		r.deliverEager(q, from, tag, size, payload)
		return
	}
	r.stats.Unexpected++
	// The arrival's payload is recycled when this call returns; the
	// unexpected copy lives until a receive matches it.
	data := mem.GetBytes(len(payload))
	r.w.bytes.Copy(data, payload)
	r.unexpected = append(r.unexpected, inbound{
		from: from, tag: tag, ctx: ctx, size: size,
		payload: data,
	})
	r.notifyArrival()
}

func (r *Rank) dispatchRTS(from int, m *header) {
	r.stats.RndvRecvd++
	if q := r.matchPosted(from, m.tag, m.ctx); q != nil {
		r.startRecvData(q, from, m.tag, m.size, m.sendID, m.packed)
		return
	}
	r.stats.Unexpected++
	r.unexpected = append(r.unexpected, inbound{
		from: from, tag: m.tag, ctx: m.ctx, size: m.size,
		sendID: m.sendID, isRts: true, packed: m.packed,
	})
	r.notifyArrival()
}

// matchPosted removes and returns the first posted receive matching the
// arrival, or nil.
func (r *Rank) matchPosted(from, tag, ctx int) *Request {
	for i, q := range r.posted {
		if matches(q.peer, q.tag, q.ctx, from, tag, ctx) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return q
		}
	}
	return nil
}

// checkTruncation panics when the incoming message exceeds the posted
// buffer, MPI's MPI_ERR_TRUNCATE condition.
func (q *Request) checkTruncation(size int) {
	if size > q.size {
		panic(fmt.Sprintf("mpi rank %d: message truncation: incoming %d bytes, posted %d (MPI_ERR_TRUNCATE)",
			q.r.rank, size, q.size))
	}
}

// setMatched records the matched message's envelope in the status.
func (q *Request) setMatched(from, tag, size int) {
	q.status = Status{Source: from, Tag: tag, Bytes: size}
	q.matchedSize = size
	q.checkTruncation(size)
}

// deliverEager completes a matched eager receive. Runs in engine or
// process context. payload is only read during the call: the bytes the
// delivery needs later are copied into a recycled buffer (mem.GetBytes),
// which goes back once it has been unpacked.
func (r *Rank) deliverEager(q *Request, from, tag, size int, payload []byte) {
	q.setMatched(from, tag, size)
	if size == 0 {
		q.CompleteRecv()
		return
	}
	data := mem.GetBytes(len(payload))
	r.w.bytes.Copy(data, payload)
	if q.buf.IsDevice() {
		r.transport().DeliverFromHost(q, data)
		return
	}
	if size%q.dt.Size() != 0 {
		panic(fmt.Sprintf("mpi rank %d: received %d bytes, not a multiple of element size %d",
			r.rank, size, q.dt.Size()))
	}
	// The scatter costs host copy time; completion is deferred by it.
	x := r.scatterFree
	if x == nil {
		x = &hscatter{r: r}
		x.fn = x.scatter
	} else {
		r.scatterFree = x.next
		x.next = nil
	}
	x.q, x.data, x.elems = q, data, size/q.dt.Size()
	r.w.e.CallAfter(r.hostPackCost(q.dt, x.elems), x.fn)
}

// hscatter is a host eager receive's scatter into the user buffer, due
// once its host copy time has passed: a pooled per-rank record with its
// step bound once.
type hscatter struct {
	r     *Rank
	q     *Request
	data  []byte
	elems int
	fn    func()
	next  *hscatter
}

func (x *hscatter) scatter() {
	r, q, data := x.r, x.q, x.data
	q.dt.UnpackBytes(q.buf, data, x.elems)
	mem.PutBytes(data)
	x.q, x.data = nil, nil
	x.next, r.scatterFree = r.scatterFree, x
	q.CompleteRecv()
}

// startRecvData launches the rendezvous receiver for a matched RTS,
// which offered packed (see GPUTransport). A host receiver leaves the
// offer to the sender.
func (r *Rank) startRecvData(q *Request, from, tag, size, sendID int, packed []byte) {
	q.setMatched(from, tag, size)
	q.peer = from // resolve AnySource for the data phase
	q.peerID = sendID
	if n := len(r.freeFinQs); n > 0 {
		q.finQ = r.freeFinQs[n-1]
		r.freeFinQs = r.freeFinQs[:n-1]
		q.finQ.Reuse(r.reqName, q.id, ".fin")
	} else {
		q.finQ = sim.NewQueueNumbered[int](r.w.e, r.reqName, q.id, ".fin")
	}
	if q.buf.IsDevice() {
		r.transport().StartRendezvousRecv(q, packed)
		return
	}
	r.w.host.recvData(q)
}

// SendCTS announces landing slots to the sender. GPU transports may call
// it several times with successive batches when staging memory is scarce.
// held says the receiver holds the packed buffer the RTS offered; every
// batch of one transfer says the same.
func (r *Rank) SendCTS(q *Request, totalChunks, chunkBytes int, slots []Slot, held bool) {
	r.w.hub.Instant(obs.KindCTS, r.obsTrack, -1, len(slots)*chunkBytes)
	r.post(nil, q.peer, header{
		kind: hdrCTS, sendID: q.peerID, recvID: q.id,
		totalChunks: totalChunks, chunkBytes: chunkBytes, slots: slots, held: held,
	}, nil, 0)
}

// AwaitFin blocks until a chunk FIN arrives and returns the chunk index.
// Like AwaitCTS it is for test references; library code waits with
// AwaitFinThen.
func (q *Request) AwaitFin(p *sim.Proc) int {
	return q.finQ.Get(p)
}

// AwaitFinThen is AwaitFin for a continuation in engine context: fn
// receives the chunk index of the next FIN — at once if one has arrived,
// otherwise in the slot where a process blocked in AwaitFin would resume,
// after the same "rankN.reqM.fin.get" firing.
func (q *Request) AwaitFinThen(fn func(chunk int)) {
	q.finQ.GetThen(fn)
}

// ChunkGeometry returns the pipeline chunking for a transfer of size bytes
// under the world's configured block size.
func (w *World) ChunkGeometry(size int) (totalChunks, chunkBytes int) {
	chunkBytes = w.cfg.BlockSize
	totalChunks = (size + chunkBytes - 1) / chunkBytes
	if totalChunks == 0 {
		totalChunks = 1
	}
	return
}

// zeroCopy reports whether count elements of dt are one gap-free byte
// range starting at the buffer base, so the user buffer itself can be
// registered for RDMA instead of a packed temporary. It answers in O(1)
// from the type's run form.
func zeroCopy(dt *datatype.Datatype, count int) bool {
	shape, ok := dt.Uniform2D(count)
	return ok && shape.Rows == 1 && shape.Off == 0
}

// ---------------------------------------------------------------------------

// Sendrecv executes a combined send and receive (MPI_Sendrecv), safe
// against the head-to-head deadlock two blocking calls would risk. Its
// two requests are never seen by the caller, so both are recycled.
func (r *Rank) Sendrecv(
	sendBuf mem.Ptr, sendCount int, sendType *datatype.Datatype, dest, sendTag int,
	recvBuf mem.Ptr, recvCount int, recvType *datatype.Datatype, source, recvTag int,
) Status {
	rq := r.Irecv(recvBuf, recvCount, recvType, source, recvTag)
	sq := r.Isend(sendBuf, sendCount, sendType, dest, sendTag)
	r.waitBlocking(sq)
	return r.waitBlocking(rq)
}
