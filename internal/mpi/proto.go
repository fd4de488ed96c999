package mpi

import (
	"fmt"

	"mv2sim/internal/datatype"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Wire messages. All protocol headers travel as two-sided ib sends; bulk
// data travels as eager payload or one-sided RDMA writes into announced
// slots.

type eagerMsg struct {
	Src, Tag, Ctx, Size int
}

type rtsMsg struct {
	Src, Tag, Ctx, Size, SendID int
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

type ctsMsg struct {
	SendID, RecvID          int
	TotalChunks, ChunkBytes int
	Slots                   []Slot
}

type finMsg struct {
	RecvID, Chunk int
}

// inbound is an arrived-but-unmatched message.
type inbound struct {
	from, tag, ctx, size int
	payload              []byte // eager data (copied); nil for rendezvous
	sendID               int    // rendezvous only
	isRts                bool
	isGet                bool   // rendezvous RTS advertises an rkey to read
	rkey                 uint32 // get protocol only
}

// GPUTransport is the extension point for device-memory buffers. The
// implementation (internal/core) owns all GPU-side staging; the matching,
// wire protocol and completion plumbing stay in this package. All methods
// are invoked in engine context or from a rank process and must not block
// the caller: long-running work is done in processes the transport spawns.
type GPUTransport interface {
	// StageToHost packs the request's device buffer into host bytes and
	// invokes deliver when the packed data is ready. Used for eager-size
	// sends and for self-sends.
	StageToHost(req *Request, deliver func(packed []byte))
	// DeliverFromHost unpacks packed bytes into the request's device
	// buffer and calls req.CompleteRecv when done. Used for eager-size
	// receives and self-receives.
	DeliverFromHost(req *Request, packed []byte)
	// StartRendezvousSend drives the sender side of a large transfer from
	// device memory: it must send the RTS via req.Rank().SendRTS, produce
	// packed chunks, place them with req.Rank().RDMAChunk, and finally
	// call req.CompleteSend.
	StartRendezvousSend(req *Request)
	// StartRendezvousRecv drives the receiver side of a large transfer
	// into device memory: it must announce landing slots via
	// req.Rank().SendCTS, consume req.AwaitFin per chunk, move the data
	// into the device buffer, and finally call req.CompleteRecv.
	StartRendezvousRecv(req *Request)
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
func (r *Rank) Send(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) {
	q := r.Isend(buf, count, dt, dest, tag)
	r.Proc().Wait(q.done)
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
		ev := r.hca.PostSend(dest, eagerMsg{r.rank, tag, ctx, 0}, nil)
		ev.OnTrigger(q.CompleteSend)
		r.stats.EagerSent++
	case buf.IsDevice():
		t := r.transport()
		if q.size <= r.w.cfg.EagerLimit {
			t.StageToHost(q, func(packed []byte) {
				ev := r.hca.PostSend(dest, eagerMsg{r.rank, tag, ctx, q.size}, packed)
				ev.OnTrigger(q.CompleteSend)
			})
			r.stats.EagerSent++
		} else {
			t.StartRendezvousSend(q)
			r.stats.RndvSent++
		}
	case q.size <= r.w.cfg.EagerLimit:
		r.Proc().Sleep(r.hostPackCost(dt, count))
		payload := make([]byte, q.size)
		dt.PackBytes(payload, buf, count)
		ev := r.hca.PostSend(dest, eagerMsg{r.rank, tag, ctx, q.size}, payload)
		ev.OnTrigger(q.CompleteSend)
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
	r.SendRTS(q)
	r.w.e.Spawn(fmt.Sprintf("rank%d.hostsend%d", r.rank, q.id), func(p *sim.Proc) {
		r.sendHostData(p, q)
	})
}

// selfSend delivers a message to this same rank without touching the
// fabric: the packed bytes are matched through the normal queues.
func (r *Rank) selfSend(q *Request) {
	deliver := func(packed []byte) {
		r.dispatchEager(r.rank, q.tag, q.ctx, q.size, packed)
		q.CompleteSend()
	}
	if q.size == 0 {
		deliver(nil)
		return
	}
	if q.buf.IsDevice() {
		r.transport().StageToHost(q, deliver)
		return
	}
	r.Proc().Sleep(r.hostPackCost(q.dt, q.count))
	payload := make([]byte, q.size)
	q.dt.PackBytes(payload, q.buf, q.count)
	deliver(payload)
}

// SendRTS posts the rendezvous request-to-send for a send request. GPU
// transports call this before (or while) packing begins, so the handshake
// overlaps datatype processing as in the paper's design.
func (r *Rank) SendRTS(q *Request) {
	r.w.hub.Instant(obs.KindRTS, r.obsTrack, -1, q.size)
	r.hca.PostSend(q.peer, rtsMsg{r.rank, q.tag, q.ctx, q.size, q.id}, nil)
}

// AwaitCTS blocks until the first CTS for this send arrives and returns
// the transfer geometry the receiver chose.
func (q *Request) AwaitCTS(p *sim.Proc) (totalChunks, chunkBytes int) {
	for q.totalChunks == 0 {
		q.waitSlotEvent(p)
	}
	return q.totalChunks, q.chunkBytes
}

// AwaitSlot blocks until the landing slot for the given chunk has been
// announced.
func (q *Request) AwaitSlot(p *sim.Proc, chunk int) Slot {
	for {
		if s, ok := q.slots[chunk]; ok {
			return s
		}
		q.waitSlotEvent(p)
	}
}

func (q *Request) waitSlotEvent(p *sim.Proc) {
	if q.slotEv == nil {
		q.slotEv = q.r.w.e.NewEvent(fmt.Sprintf("rank%d.req%d.cts", q.r.rank, q.id))
	}
	p.Wait(q.slotEv)
}

// RDMAChunk places one packed chunk into its announced slot on rail 0 and
// posts the chunk's FIN message behind it (ordered delivery makes the FIN
// arrive after the data). It returns the local completion event, after
// which the source buffer is reusable.
func (r *Rank) RDMAChunk(q *Request, s Slot, src mem.Ptr, n int) *sim.Event {
	return r.RDMAChunkRail(q, s, src, n, 0)
}

// RDMAChunkRail is RDMAChunk on an explicit HCA rail. The data write and
// its FIN travel on the same rail — wire FIFO ordering holds only per
// rail, so posting them on different rails would let the FIN overtake its
// data. FINs from different rails may arrive in any interleaving; the
// receiver must not assume chunk order.
func (r *Rank) RDMAChunkRail(q *Request, s Slot, src mem.Ptr, n, rail int) *sim.Event {
	return r.RDMAChunkRailSpan(q, s, src, n, rail, obs.Span{})
}

// RDMAChunkRailSpan is RDMAChunkRail with the chunk's wire tasks and FIN
// marker parented under the sender's rdma stage span, so the critical-path
// analyzer can follow chunk identity across the fabric. An inert span
// degrades to plain tracing.
func (r *Rank) RDMAChunkRailSpan(q *Request, s Slot, src mem.Ptr, n, rail int, sp obs.Span) *sim.Event {
	if n != s.Len {
		panic(fmt.Sprintf("mpi: chunk %d length %d does not match slot length %d", s.Chunk, n, s.Len))
	}
	ev := r.hca.RDMAWriteRailTask(q.peer, src, n, s.Rkey, s.Off, rail, sp, s.Chunk)
	r.w.hub.InstantChild(sp, obs.KindFIN, r.obsTrack, s.Chunk, n)
	r.hca.PostSendRail(q.peer, finMsg{q.peerID, s.Chunk}, nil, rail)
	return ev
}

// RDMANicChunkRailSpan places one chunk into its announced slot with the
// HCA's scatter/gather unit walking the datatype in place of a packed
// source buffer (ib.RDMAWriteGatherRailTask). The gather delays the wire
// post by the SGE engine time, so the FIN cannot be posted here at call
// time — it would overtake the data on the rail FIFO. Instead it rides
// the onWirePosted hook, which the HCA invokes synchronously right after
// posting the data transfer, restoring the exact post order
// RDMAChunkRailSpan gets for free.
func (r *Rank) RDMANicChunkRailSpan(q *Request, s Slot, sg ib.SGDesc, rail int, sp obs.Span) *sim.Event {
	if sg.N != s.Len {
		panic(fmt.Sprintf("mpi: chunk %d length %d does not match slot length %d", s.Chunk, sg.N, s.Len))
	}
	return r.hca.RDMAWriteGatherRailTask(q.peer, sg, s.Rkey, s.Off, rail, sp, s.Chunk, func() {
		r.w.hub.InstantChild(sp, obs.KindFIN, r.obsTrack, s.Chunk, sg.N)
		r.hca.PostSendRail(q.peer, finMsg{q.peerID, s.Chunk}, nil, rail)
	})
}

// sendHostData is the host-memory rendezvous sender: pack each chunk on
// the CPU and place it. Chunks are processed in order; each chunk's pack
// overlaps the previous chunk's wire time through the async RDMA post.
// Packing indexes the datatype's cached chunk plan, so the per-chunk walk
// re-derives nothing.
func (r *Rank) sendHostData(p *sim.Proc, q *Request) {
	total, chunkBytes := q.AwaitCTS(p)
	plan := q.dt.ChunkPlan(q.count, chunkBytes)
	staging := r.AllocHost(chunkBytes)
	defer r.FreeHost(staging)
	var lastEv *sim.Event
	for c := 0; c < total; c++ {
		s := q.AwaitSlot(p, c)
		off := c * chunkBytes
		p.Sleep(r.hostCopyCost(s.Len))
		plan.PackRange(staging, q.buf, off, s.Len)
		lastEv = r.RDMAChunk(q, s, staging, s.Len)
		// The staging buffer is reused next iteration, so wait for the
		// HCA to have read it (local completion).
		p.Wait(lastEv)
	}
	if lastEv != nil {
		p.Wait(lastEv)
	}
	q.CompleteSend()
}

// ---------------------------------------------------------------------------
// Receive side

// Irecv posts a non-blocking receive (MPI_Irecv). source may be AnySource
// and tag may be AnyTag.
func (r *Rank) Irecv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) *Request {
	return r.irecv(buf, count, dt, source, tag, ctxPt2pt)
}

// Recv is the blocking form (MPI_Recv).
func (r *Rank) Recv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) Status {
	q := r.Irecv(buf, count, dt, source, tag)
	r.Proc().Wait(q.done)
	return q.status
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
		r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
		switch {
		case in.isRts && in.isGet:
			r.startRecvGet(q, in.from, in.tag, in.size, in.sendID, in.rkey)
		case in.isRts:
			r.startRecvData(q, in.from, in.tag, in.size, in.sendID)
		default:
			r.deliverEager(q, in.from, in.tag, in.size, in.payload)
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
// arriving protocol message.
func (r *Rank) handleMessage(from int, msg ib.Message, payload []byte) {
	switch m := msg.(type) {
	case eagerMsg:
		r.dispatchEager(m.Src, m.Tag, m.Ctx, m.Size, payload)
	case rtsMsg:
		r.dispatchRTS(m)
	case rtsGetMsg:
		r.dispatchRTSGet(m)
	case doneMsg:
		q := r.reqs[m.SendID]
		if q == nil {
			panic(fmt.Sprintf("mpi rank %d: DONE for unknown send %d", r.rank, m.SendID))
		}
		q.onDone()
	case ctsMsg:
		q := r.reqs[m.SendID]
		if q == nil {
			panic(fmt.Sprintf("mpi rank %d: CTS for unknown send %d", r.rank, m.SendID))
		}
		q.peerID = m.RecvID
		q.totalChunks = m.TotalChunks
		q.chunkBytes = m.ChunkBytes
		if q.slots == nil {
			q.slots = map[int]Slot{}
		}
		for _, s := range m.Slots {
			q.slots[s.Chunk] = s
		}
		if q.slotEv != nil {
			q.slotEv.Trigger()
			q.slotEv = nil
		}
	case finMsg:
		q := r.reqs[m.RecvID]
		if q == nil {
			panic(fmt.Sprintf("mpi rank %d: FIN for unknown recv %d", r.rank, m.RecvID))
		}
		q.finQ.Put(m.Chunk)
	default:
		panic(fmt.Sprintf("mpi rank %d: unknown message %T", r.rank, msg))
	}
}

func (r *Rank) dispatchEager(from, tag, ctx, size int, payload []byte) {
	r.stats.EagerRecvd++
	if q := r.matchPosted(from, tag, ctx); q != nil {
		r.deliverEager(q, from, tag, size, payload)
		return
	}
	r.stats.Unexpected++
	r.unexpected = append(r.unexpected, &inbound{
		from: from, tag: tag, ctx: ctx, size: size,
		payload: append([]byte(nil), payload...),
	})
	r.notifyArrival()
}

func (r *Rank) dispatchRTS(m rtsMsg) {
	r.stats.RndvRecvd++
	if q := r.matchPosted(m.Src, m.Tag, m.Ctx); q != nil {
		r.startRecvData(q, m.Src, m.Tag, m.Size, m.SendID)
		return
	}
	r.stats.Unexpected++
	r.unexpected = append(r.unexpected, &inbound{
		from: m.Src, tag: m.Tag, ctx: m.Ctx, size: m.Size,
		sendID: m.SendID, isRts: true,
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

// deliverEager completes a matched eager receive. Runs in engine or
// process context.
func (q *Request) setMatched(from, tag, size int) {
	q.status = Status{Source: from, Tag: tag, Bytes: size}
	q.matchedSize = size
	q.checkTruncation(size)
}

func (r *Rank) deliverEager(q *Request, from, tag, size int, payload []byte) {
	q.setMatched(from, tag, size)
	if size == 0 {
		q.CompleteRecv()
		return
	}
	if q.buf.IsDevice() {
		r.transport().DeliverFromHost(q, append([]byte(nil), payload...))
		return
	}
	if size%q.dt.Size() != 0 {
		panic(fmt.Sprintf("mpi rank %d: received %d bytes, not a multiple of element size %d",
			r.rank, size, q.dt.Size()))
	}
	elems := size / q.dt.Size()
	data := append([]byte(nil), payload...)
	// The scatter costs host copy time; completion is deferred by it.
	r.w.e.CallAfter(r.hostPackCost(q.dt, elems), func() {
		q.dt.UnpackBytes(q.buf, data, elems)
		q.CompleteRecv()
	})
}

// startRecvData launches the rendezvous receiver for a matched RTS.
func (r *Rank) startRecvData(q *Request, from, tag, size, sendID int) {
	q.setMatched(from, tag, size)
	q.peer = from // resolve AnySource for the data phase
	q.peerID = sendID
	q.finQ = sim.NewQueue[int](r.w.e, fmt.Sprintf("rank%d.req%d.fin", r.rank, q.id))
	if q.buf.IsDevice() {
		r.transport().StartRendezvousRecv(q)
		return
	}
	r.w.e.Spawn(fmt.Sprintf("rank%d.hostrecv%d", r.rank, q.id), func(p *sim.Proc) {
		r.recvHostData(p, q)
	})
}

// SendCTS announces landing slots to the sender. GPU transports may call
// it several times with successive batches when staging memory is scarce.
func (r *Rank) SendCTS(q *Request, totalChunks, chunkBytes int, slots []Slot) {
	r.w.hub.Instant(obs.KindCTS, r.obsTrack, -1, len(slots)*chunkBytes)
	r.hca.PostSend(q.peer, ctsMsg{
		SendID: q.peerID, RecvID: q.id,
		TotalChunks: totalChunks, ChunkBytes: chunkBytes,
		Slots: slots,
	}, nil)
}

// AwaitFin blocks until a chunk FIN arrives and returns the chunk index.
func (q *Request) AwaitFin(p *sim.Proc) int {
	return q.finQ.Get(p)
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

// recvHostData is the host-memory rendezvous receiver. A receive into a
// single-segment (fully contiguous) host buffer is zero-copy: the user
// buffer itself is registered and announced. Otherwise the data lands in a
// temporary packed buffer and is scattered once all chunks arrive.
func (r *Rank) recvHostData(p *sim.Proc, q *Request) {
	size := q.matchedSize
	total, chunkBytes := r.w.ChunkGeometry(size)

	var landing mem.Ptr
	temp := false
	if zeroCopy(q.dt, q.count) {
		landing = q.buf
	} else {
		landing = r.AllocHost(size)
		temp = true
	}
	region := r.hca.Register(landing, size)

	slots := make([]Slot, total)
	for c := 0; c < total; c++ {
		n := chunkBytes
		if off := c * chunkBytes; off+n > size {
			n = size - off
		}
		slots[c] = Slot{Chunk: c, Rkey: region.Rkey, Off: c * chunkBytes, Len: n}
	}
	r.SendCTS(q, total, chunkBytes, slots)

	for got := 0; got < total; got++ {
		q.AwaitFin(p)
	}
	r.hca.Deregister(region)
	if temp {
		p.Sleep(r.hostPackCost(q.dt, q.count))
		elems := size / q.dt.Size()
		q.dt.Unpack(q.buf, landing, elems)
		r.FreeHost(landing)
	}
	q.CompleteRecv()
}

// ---------------------------------------------------------------------------

// Sendrecv executes a combined send and receive (MPI_Sendrecv), safe
// against the head-to-head deadlock two blocking calls would risk.
func (r *Rank) Sendrecv(
	sendBuf mem.Ptr, sendCount int, sendType *datatype.Datatype, dest, sendTag int,
	recvBuf mem.Ptr, recvCount int, recvType *datatype.Datatype, source, recvTag int,
) Status {
	rq := r.Irecv(recvBuf, recvCount, recvType, source, recvTag)
	sq := r.Isend(sendBuf, sendCount, sendType, dest, sendTag)
	r.Proc().Wait(sq.done)
	r.Proc().Wait(rq.done)
	return rq.status
}
