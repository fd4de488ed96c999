package mpi

// UseTwoResumeCalls makes w run every blocking call as the process form
// does, one rank resume after each call overhead and one from each wait:
// the reference the folded calls (blocking.go) are checked against. Call
// it before communication starts.
func UseTwoResumeCalls(w *World) { w.twoResumes = twoResumeCall }

// twoResumeCall is blockingCall as the process form runs it: irecv and
// isend, each sleeping its call overhead (and isend its CPU pack), then
// the waits.
func twoResumeCall(r *Rank, send, recv callPart) Status {
	var sq, rq *Request
	switch recv.kind {
	case partNull:
		rq = r.nullRequest(RecvReq)
	case partPosted:
		rq = r.irecv(recv.buf, recv.count, recv.dt, recv.peer, recv.tag, recv.ctx)
	}
	switch send.kind {
	case partNull:
		sq = r.nullRequest(SendReq)
	case partPosted:
		sq = r.isend(send.buf, send.count, send.dt, send.peer, send.tag, send.ctx)
	}
	return r.waitCall(sq, rq)
}
