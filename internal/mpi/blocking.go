package mpi

import (
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// Blocking calls resume their rank once.
//
// A blocking Send or Recv is a nonblocking call and a wait. As a process
// that takes two resumes: the rank sleeps the call overhead, wakes to
// post (startSend, startRecv), and blocks again until the request
// completes. Here the post runs as the item the overhead's wake-up would
// be (sim.Proc.SleepPost), and the rank wakes only from its wait — or in
// that same item, when the call completes inside its post (a ProcNull
// peer, an empty message that had already arrived). Sendrecv, and the
// collectives' receive-then-send exchanges, chain the send's post behind
// the receive's (sim.Proc.PostAfter), as the process slept the second
// call's overhead. A send that packs on the CPU chains its pack the same
// way, in the slot of the process's pack Sleep, and the rank waits from
// the pack's item on: a host self-send, which completes inside its pack,
// resumes the rank in that item, where the process ran on through its
// Wait. The items, their order, the event firings and virtual time are
// those of the process form; only rank switches go.

// partKind says what one side of a blocking call does.
type partKind uint8

const (
	partNone   partKind = iota // the call has no such side
	partNull                   // ProcNull on a communicator: a completed request, no call cost
	partPosted                 // a real send or receive, posted after the call overhead
)

// callPart is one side, send or receive, of a blocking call.
type callPart struct {
	kind  partKind
	buf   mem.Ptr
	count int
	dt    *datatype.Datatype
	peer  int // world rank, or a wildcard or ProcNull as isend and irecv take them
	tag   int
	ctx   int
}

// posted is a callPart that is posted after the call overhead.
func posted(buf mem.Ptr, count int, dt *datatype.Datatype, peer, tag, ctx int) callPart {
	return callPart{kind: partPosted, buf: buf, count: count, dt: dt, peer: peer, tag: tag, ctx: ctx}
}

// callRecord is the rank's blocking call in flight: its two sides, the
// requests their posts made, and the posts, bound once as method values.
// A rank makes one blocking call at a time, so one record per rank does.
type callRecord struct {
	r          *Rank
	send, recv callPart
	sq, rq     *Request

	sendFn, recvFn, packFn func() *sim.Event
}

func (c *callRecord) bind(r *Rank) {
	c.r = r
	c.sendFn, c.recvFn, c.packFn = c.postSend, c.postRecv, c.postPack
}

// blockingCall runs a blocking call of a send, a receive or both, the
// receive posted first as Sendrecv posts it, and returns the receive's
// status, or the send's if there is no receive. Each request is
// recycled once it has completed.
func (r *Rank) blockingCall(send, recv callPart) Status {
	if r.w.twoResumes != nil {
		return r.w.twoResumes(r, send, recv)
	}
	c := &r.call
	c.send, c.recv = send, recv
	switch {
	case recv.kind == partPosted:
		r.Proc().SleepPost(r.w.cfg.CallOverhead, c.recvFn)
	case send.kind == partPosted:
		if recv.kind == partNull {
			c.rq = r.nullRequest(RecvReq)
		}
		r.Proc().SleepPost(r.w.cfg.CallOverhead, c.sendFn)
	default:
		if recv.kind == partNull {
			c.rq = r.nullRequest(RecvReq)
		}
		if send.kind == partNull {
			c.sq = r.nullRequest(SendReq)
		}
	}
	sq, rq := c.sq, c.rq
	c.sq, c.rq = nil, nil
	return r.waitCall(sq, rq)
}

// waitCall waits for a blocking call's requests, the send's first, and
// returns the receive's status, or the send's if there is no receive.
func (r *Rank) waitCall(sq, rq *Request) Status {
	var st Status
	if sq != nil {
		st = r.waitBlocking(sq)
	}
	if rq != nil {
		st = r.waitBlocking(rq)
	}
	return st
}

// postRecv is the receive's post. A send that follows is posted after
// its own call overhead, or made at once if it is a ProcNull.
func (c *callRecord) postRecv() *sim.Event {
	r, a := c.r, &c.recv
	c.rq = r.startRecv(a.buf, a.count, a.dt, a.peer, a.tag, a.ctx)
	switch c.send.kind {
	case partNull:
		c.sq = r.nullRequest(SendReq)
	case partPosted:
		r.Proc().PostAfter(r.w.cfg.CallOverhead, c.sendFn)
		return nil
	}
	return c.waitOn()
}

// postSend is the send's post. A send that packs on the CPU chains its
// pack, a further post where the process would have slept through it.
func (c *callRecord) postSend() *sim.Event {
	r, a := c.r, &c.send
	q, pack := r.startSend(a.buf, a.count, a.dt, a.peer, a.tag, a.ctx)
	c.sq = q
	if pack {
		r.Proc().PostAfter(r.hostPackCost(q.dt, q.count), c.packFn)
		return nil
	}
	return c.waitOn()
}

// postPack is a CPU-packing send's pack, once its pack time has passed.
func (c *callRecord) postPack() *sim.Event {
	c.r.packSend(c.sq)
	return c.waitOn()
}

// waitOn returns the event the rank waits on first, as waitCall would:
// the send's completion unless it has fired, then the receive's.
func (c *callRecord) waitOn() *sim.Event {
	if c.sq != nil && (c.rq == nil || !c.sq.done.Fired()) {
		return &c.sq.done
	}
	return &c.rq.done
}
