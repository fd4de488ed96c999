package mpi

import (
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// ReqKind discriminates send and receive requests.
type ReqKind uint8

const (
	SendReq ReqKind = iota
	RecvReq
)

// Status reports the outcome of a completed receive (MPI_Status).
type Status struct {
	Source int
	Tag    int
	// Bytes is the packed size of the received message.
	Bytes int
}

// Request is a non-blocking communication handle (MPI_Request).
type Request struct {
	r     *Rank
	kind  ReqKind
	buf   mem.Ptr
	dt    *datatype.Datatype
	count int
	peer  int // destination (send) or source filter (recv; may be AnySource)
	tag   int // tag (recv side may be AnyTag)
	ctx   int
	size  int // packed bytes: send size, or recv capacity until matched

	done   sim.Event
	status Status

	// completeSendFn is CompleteSend bound once, so eager sends register
	// their completion without a closure.
	completeSendFn func()

	// ev is a send's second event: an eager send's post completion (the
	// HCA has read the bytes), or a rendezvous send's "new CTS batch
	// arrived", armed while slotWait.
	ev sim.Event

	// rendezvous state
	id          int             // sendID (sender) or recvID (receiver)
	peerID      int             // the other side's request ID
	totalChunks int             // set by the first CTS (sender) or at match (receiver)
	chunkBytes  int             // pipeline granularity for this transfer
	slots       []slotEntry     // sender: landing slot by chunk, sized by the first CTS; kept on reuse
	slotWait    bool            // sender: something waits on ev for a CTS batch
	slotChunk   int             // sender: the chunk a blocked AwaitSlotThen waits for
	slotFn      func()          // sender: that AwaitSlotThen's continuation
	slotRetryFn func()          // sender: slotRetry, bound on first use
	finQ        *sim.Queue[int] // receiver: arrived chunk indices
	matchedSize int             // receiver: actual incoming packed bytes

	// get-protocol state
	rkey   uint32  // the region read: the sender's own, or advertised to the receiver
	getBuf mem.Ptr // sender: its packed copy, freed on DONE; nil when zero-copy

	span obs.Span // open over the request's lifetime when tracing
}

// Accessors used by GPU transports.

// Rank returns the owning rank.
func (q *Request) Rank() *Rank { return q.r }

// Kind returns whether this is a send or a receive.
func (q *Request) Kind() ReqKind { return q.kind }

// Buf returns the user buffer.
func (q *Request) Buf() mem.Ptr { return q.buf }

// Datatype returns the element type.
func (q *Request) Datatype() *datatype.Datatype { return q.dt }

// Count returns the element count.
func (q *Request) Count() int { return q.count }

// Peer returns the destination (send) or matched source (recv).
func (q *Request) Peer() int { return q.peer }

// Tag returns the message tag.
func (q *Request) Tag() int { return q.tag }

// Size returns the packed byte size of the transfer. For receives it is
// the actual incoming size once matched.
func (q *Request) Size() int {
	if q.kind == RecvReq && q.matchedSize > 0 {
		return q.matchedSize
	}
	return q.size
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done.Fired() }

// OnComplete registers fn to run when the request completes; it runs
// immediately if the request is already done. Open-loop load generators
// use it to timestamp completions without dedicating a waiter proc per
// outstanding request.
func (q *Request) OnComplete(fn func()) { q.done.OnTrigger(fn) }

// ObsSpan returns the request's tracing span (inert when tracing is off).
// GPU transports parent their pipeline-stage tasks to it.
func (q *Request) ObsSpan() obs.Span { return q.span }

// newRequest assigns an ID and registers the request for protocol lookup.
// It reuses a request a blocking call recycled (see recycle) when there
// is one.
func (r *Rank) newRequest(kind ReqKind, buf mem.Ptr, dt *datatype.Datatype, count, peer, tag, ctx int) *Request {
	dtSize := count * dt.Size()
	r.nextID++
	var q *Request
	if n := len(r.freeReqs); n > 0 {
		q = r.freeReqs[n-1]
		r.freeReqs = r.freeReqs[:n-1]
	} else {
		q = new(Request)
		r.allocReqs++
	}
	*q = Request{
		r: r, kind: kind, buf: buf, dt: dt, count: count,
		peer: peer, tag: tag, ctx: ctx, size: dtSize,
		id:             r.nextID,
		completeSendFn: q.completeSendFn,
		slotRetryFn:    q.slotRetryFn,
		slots:          q.slots[:0],
	}
	q.done.ResetNumbered(r.w.e, r.reqName, r.nextID)
	r.reqs[q.id] = q
	r.w.hub.Counter(r.inflightCtr, float64(len(r.reqs)))
	return q
}

// waitBlocking is the wait of a blocking call, whose request the caller
// never sees: it returns the status and recycles the request.
func (r *Rank) waitBlocking(q *Request) Status {
	r.Proc().Wait(&q.done)
	st := q.status
	r.recycle(q)
	return st
}

// recycle puts a completed request of a blocking call back on the rank's
// free list. Nothing names it any more: complete has deleted its reqs
// entry and returned its FIN queue, and every protocol record — eager
// staging, the host rendezvous records, the GPU transport's — lets go of
// a request before completing it. A request handed to the user is never
// recycled, and neither is a ProcNull request.
func (r *Rank) recycle(q *Request) {
	if q.id == 0 {
		return
	}
	// Both resets panic if anything still waits on the event.
	q.done.Reset(r.w.e, "")
	q.ev.Reset(r.w.e, "")
	r.freeReqs = append(r.freeReqs, q)
}

// nullRequest returns an already-completed request for communication with
// ProcNull: no data moves, and the status reports ProcNull/AnyTag/0 bytes
// as the MPI standard specifies.
func (r *Rank) nullRequest(kind ReqKind) *Request {
	q := &Request{
		r: r, kind: kind, peer: ProcNull, tag: AnyTag,
		dt:     datatype.Byte,
		status: Status{Source: ProcNull, Tag: AnyTag, Bytes: 0},
	}
	q.done.Reset(r.w.e, "procnull")
	q.done.Trigger()
	return q
}

// complete finalizes the request. A rendezvous receive has consumed
// every FIN by now, so its FIN queue goes back to the rank.
func (q *Request) complete() {
	if q.finQ != nil {
		q.r.freeFinQs = append(q.r.freeFinQs, q.finQ)
		q.finQ = nil
	}
	delete(q.r.reqs, q.id)
	q.r.w.hub.Counter(q.r.inflightCtr, float64(len(q.r.reqs)))
	q.span.End()
	q.done.Trigger()
}

// CompleteSend is called by transports when the sender side has finished.
func (q *Request) CompleteSend() {
	if q.kind != SendReq {
		panic("mpi: CompleteSend on a receive request")
	}
	q.complete()
}

// CompleteRecv is called by transports when the data is fully in the user
// buffer. It fills in the status from the matched message.
func (q *Request) CompleteRecv() {
	if q.kind != RecvReq {
		panic("mpi: CompleteRecv on a send request")
	}
	q.complete()
}

// Wait blocks until the request completes and returns its status
// (MPI_Wait).
func (r *Rank) Wait(q *Request) Status {
	r.callOverhead()
	r.Proc().Wait(&q.done)
	return q.status
}

// Waitall blocks until every request completes (MPI_Waitall).
func (r *Rank) Waitall(qs ...*Request) {
	r.callOverhead()
	for _, q := range qs {
		r.Proc().Wait(&q.done)
	}
}

// Waitany blocks until at least one of the requests completes and returns
// its index and status (MPI_Waitany). Panics on an empty list.
func (r *Rank) Waitany(qs ...*Request) (int, Status) {
	r.callOverhead()
	if len(qs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	events := make([]*sim.Event, len(qs))
	for i, q := range qs {
		events[i] = &q.done
	}
	idx := r.Proc().WaitAny(events...)
	return idx, qs[idx].status
}

// Test reports whether the request has completed without blocking
// (MPI_Test).
func (r *Rank) Test(q *Request) (bool, Status) {
	r.callOverhead()
	if q.done.Fired() {
		return true, q.status
	}
	return false, Status{}
}
