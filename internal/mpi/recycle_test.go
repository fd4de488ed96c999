package mpi

import (
	"testing"

	"mv2sim/internal/datatype"
)

// TestUserRequestsOutliveRecycling: an Isend or Irecv handle is the
// user's to keep, so it is never recycled, even when it was built from a
// request a blocking call recycled: it still reports Done and its Status
// after later blocking calls have reused the free list many times.
func TestUserRequestsOutliveRecycling(t *testing.T) {
	const n = 256
	run(t, 2, func(r *Rank) {
		buf, scratch := r.AllocHost(n), r.AllocHost(n)
		peer := 1 - r.Rank()
		blocking := func(trips int) {
			for i := 0; i < trips; i++ {
				if r.Rank() == 0 {
					r.Send(scratch, n/2, datatype.Byte, peer, i)
					r.Recv(scratch, n/4, datatype.Byte, peer, i)
				} else {
					r.Recv(scratch, n/2, datatype.Byte, peer, i)
					r.Send(scratch, n/4, datatype.Byte, peer, i)
				}
			}
		}
		blocking(3)
		recycled := len(r.freeReqs)
		var q *Request
		if r.Rank() == 0 {
			fillPattern(buf, n, 9)
			q = r.Isend(buf, n-8, datatype.Byte, peer, 77)
		} else {
			q = r.Irecv(buf, n, datatype.Byte, peer, AnyTag)
		}
		if len(r.freeReqs) != recycled-1 {
			t.Errorf("rank %d: the user's request was not built from a recycled one", r.Rank())
		}
		_ = r.Wait(q)
		blocking(20)
		for _, f := range r.freeReqs {
			if f == q {
				t.Fatalf("rank %d: the user's request was recycled", r.Rank())
			}
		}
		if !q.Done() {
			t.Errorf("rank %d: user request no longer Done", r.Rank())
		}
		if ok, st := r.Test(q); !ok || (r.Rank() == 1 && st != (Status{Source: 0, Tag: 77, Bytes: n - 8})) {
			t.Errorf("rank %d: Test = %v %+v after later blocking calls", r.Rank(), ok, st)
		}
	})
}
