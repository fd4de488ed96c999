package mpi

import (
	"testing"

	"mv2sim/internal/datatype"
)

// TestBlockingRoundTripsRecycleRequests: blocking Send and Recv put their
// requests back on the rank's free list once completed eagerly, and new
// requests come from it, so any number of round trips allocates at most
// two requests per rank. A rendezvous request is never recycled.
func TestBlockingRoundTripsRecycleRequests(t *testing.T) {
	const trips, n = 200, 512
	w := run(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		peer := 1 - r.Rank()
		for i := 0; i < trips; i++ {
			if r.Rank() == 0 {
				fillPattern(buf, n, byte(i))
				r.Send(buf, n, datatype.Byte, peer, i)
				r.Recv(buf, n, datatype.Byte, peer, i)
				checkPattern(t, buf, n, byte(i), "echo")
			} else {
				st := r.Recv(buf, n, datatype.Byte, peer, i)
				if st.Source != peer || st.Tag != i || st.Bytes != n {
					t.Errorf("trip %d: status %+v", i, st)
				}
				r.Send(buf, n, datatype.Byte, peer, i)
			}
		}
	})
	for i := 0; i < w.Size(); i++ {
		if got := w.Rank(i).allocReqs; got > 2 {
			t.Errorf("rank %d allocated %d requests over %d blocking round trips, want at most 2", i, got, trips)
		}
	}

	const big = 1 << 20 // rendezvous
	w = run(t, 2, func(r *Rank) {
		buf := r.AllocHost(big)
		for i := 0; i < 3; i++ {
			if r.Rank() == 0 {
				r.Send(buf, big, datatype.Byte, 1, i)
			} else {
				r.Recv(buf, big, datatype.Byte, 0, i)
			}
		}
	})
	for i := 0; i < w.Size(); i++ {
		if r := w.Rank(i); r.allocReqs != 3 || len(r.freeReqs) != 0 {
			t.Errorf("rank %d: %d requests allocated, %d recycled over 3 rendezvous transfers, want 3 and 0",
				i, r.allocReqs, len(r.freeReqs))
		}
	}
}

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
