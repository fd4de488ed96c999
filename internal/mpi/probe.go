package mpi

import (
	"fmt"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
)

// Iprobe checks for a matching incoming message without receiving it
// (MPI_Iprobe). It inspects the unexpected queue only — any message that
// has arrived but not been matched. source/tag accept wildcards.
func (r *Rank) Iprobe(source, tag int) (bool, Status) {
	r.callOverhead()
	return r.iprobe(source, tag, ctxPt2pt)
}

func (r *Rank) iprobe(source, tag, ctx int) (bool, Status) {
	for _, in := range r.unexpected {
		if matches(source, tag, ctx, in.from, in.tag, in.ctx) {
			return true, Status{Source: in.from, Tag: in.tag, Bytes: in.size}
		}
	}
	return false, Status{}
}

// Probe blocks until a matching message has arrived (MPI_Probe) and
// returns its envelope; the message stays queued for a later Recv.
func (r *Rank) Probe(source, tag int) Status {
	r.callOverhead()
	for {
		if ok, st := r.iprobe(source, tag, ctxPt2pt); ok {
			return st
		}
		ev := r.w.e.NewEvent(fmt.Sprintf("rank%d.probe", r.rank))
		r.arrivalWaiters = append(r.arrivalWaiters, ev)
		r.Proc().Wait(ev)
	}
}

// notifyArrival wakes all blocked Probe calls; invoked whenever a message
// joins the unexpected queue.
func (r *Rank) notifyArrival() {
	ws := r.arrivalWaiters
	r.arrivalWaiters = nil
	for _, ev := range ws {
		ev.Trigger()
	}
}

// Ssend is the synchronous send (MPI_Ssend): it returns only after the
// receiver has matched the message. It always uses the rendezvous
// protocol, whose CTS is exactly the required matching acknowledgement —
// the same strategy MPICH-family libraries use.
func (r *Rank) Ssend(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) {
	q := r.Issend(buf, count, dt, dest, tag)
	r.Proc().Wait(&q.done)
}

// Issend is the non-blocking synchronous send (MPI_Issend).
func (r *Rank) Issend(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) *Request {
	r.callOverhead()
	checkType(dt, count)
	if dest == r.rank {
		// Synchronous self-send: deliver through the local queues; the
		// send completes when the matching receive exists. With a single
		// process per rank the blocking form requires the receive to be
		// pre-posted, as in MPI.
		q := r.newRequest(SendReq, buf, dt, count, dest, tag, ctxPt2pt)
		r.selfSend(q)
		return q
	}
	q := r.newRequest(SendReq, buf, dt, count, dest, tag, ctxPt2pt)
	r.stats.BytesSent += int64(q.size)
	r.stats.RndvSent++
	if buf.IsDevice() && q.size > 0 {
		r.transport().StartRendezvousSend(q)
		return q
	}
	r.startHostRendezvous(q)
	return q
}
