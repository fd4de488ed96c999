package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mv2sim/internal/datatype"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// testWorld assembles n host-only ranks on one fabric.
func testWorld(n int) (*sim.Engine, *World) {
	e := sim.New()
	fabric := ib.NewFabric(e, ib.Model{})
	w := NewWorld(e, Config{})
	for i := 0; i < n; i++ {
		w.AddRank(fabric.NewHCA(i), mem.Reserve(mem.Host, fmt.Sprintf("host%d", i), -1, 64<<20))
	}
	return e, w
}

// run launches fn on all ranks and executes to completion.
func run(t *testing.T, n int, fn func(r *Rank)) *World {
	t.Helper()
	e, w := testWorld(n)
	w.Launch(fn)
	if err := e.Run(); err != nil {
		t.Fatalf("simulation did not drain: %v", err)
	}
	return w
}

func fillPattern(p mem.Ptr, n int, seed byte) {
	mem.Fill(p, n, func(i int) byte { return byte(i)*3 + seed })
}

func checkPattern(t *testing.T, p mem.Ptr, n int, seed byte, what string) {
	t.Helper()
	b := p.Bytes(n)
	for i := 0; i < n; i++ {
		if b[i] != byte(i)*3+seed {
			t.Fatalf("%s: byte %d = %d, want %d", what, i, b[i], byte(i)*3+seed)
		}
	}
}

func TestEagerSendRecv(t *testing.T) {
	const n = 1024 // well under the eager limit
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		switch r.Rank() {
		case 0:
			fillPattern(buf, n, 7)
			r.Send(buf, n, datatype.Byte, 1, 42)
		case 1:
			st := r.Recv(buf, n, datatype.Byte, 0, 42)
			if st.Source != 0 || st.Tag != 42 || st.Bytes != n {
				t.Errorf("status = %+v", st)
			}
			checkPattern(t, buf, n, 7, "eager recv")
		}
	})
}

func TestRendezvousSendRecv(t *testing.T) {
	const n = 1 << 20 // rendezvous
	w := run(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		switch r.Rank() {
		case 0:
			fillPattern(buf, n, 9)
			r.Send(buf, n, datatype.Byte, 1, 5)
		case 1:
			st := r.Recv(buf, n, datatype.Byte, 0, 5)
			if st.Bytes != n {
				t.Errorf("bytes = %d", st.Bytes)
			}
			checkPattern(t, buf, n, 9, "rendezvous recv")
		}
	})
	if st := w.Rank(0).Stats(); st.RndvSent != 1 {
		t.Errorf("sender stats = %+v, want one rendezvous", st)
	}
}

func TestRendezvousTakesLongerThanEager(t *testing.T) {
	timeFor := func(n int) sim.Time {
		e, w := testWorld(2)
		var elapsed sim.Time
		w.Launch(func(r *Rank) {
			buf := r.AllocHost(n)
			if r.Rank() == 0 {
				t0 := r.Now()
				r.Send(buf, n, datatype.Byte, 1, 0)
				r.Recv(buf, 1, datatype.Byte, 1, 1)
				elapsed = r.Now() - t0
			} else {
				r.Recv(buf, n, datatype.Byte, 0, 0)
				r.Send(buf, 1, datatype.Byte, 0, 1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	small, large := timeFor(1024), timeFor(1<<22)
	if large < 10*small {
		t.Errorf("4MB round trip %v not ≫ 1KB %v", large, small)
	}
}

func TestVectorDatatypeTransfer(t *testing.T) {
	// Send a strided column, receive into a different stride.
	vsend, _ := datatype.Vector(64, 4, 16, datatype.Byte)
	vsend.MustCommit()
	vrecv, _ := datatype.Vector(64, 4, 32, datatype.Byte)
	vrecv.MustCommit()
	run(t, 2, func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.AllocHost(vsend.Span(1))
			fillPattern(buf, vsend.Span(1), 1)
			r.Send(buf, 1, vsend, 1, 0)
		case 1:
			buf := r.AllocHost(vrecv.Span(1))
			r.Recv(buf, 1, vrecv, 0, 0)
			// Verify pack-equivalence: packed(recv) == packed(send pattern).
			got := make([]byte, vrecv.Size())
			vrecv.PackBytes(got, buf, 1)
			want := make([]byte, vsend.Size())
			src := mem.NewHostSpace("ref", vsend.Span(1))
			fillPattern(src.Base(), vsend.Span(1), 1)
			vsend.PackBytes(want, src.Base(), 1)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("typed transfer byte %d: got %d want %d", i, got[i], want[i])
				}
			}
		}
	})
}

func TestLargeNonContiguousRendezvous(t *testing.T) {
	// Non-contiguous on both sides, above the eager limit: exercises the
	// temp-buffer pack path and the chunked CTS.
	v, _ := datatype.Vector(32768, 4, 8, datatype.Byte) // 128 KB packed
	v.MustCommit()
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(v.Span(1))
		switch r.Rank() {
		case 0:
			fillPattern(buf, v.Span(1), 3)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			r.Recv(buf, 1, v, 0, 0)
			for _, s := range v.SegmentsOf(1) {
				b := buf.Add(s.Off).Bytes(s.Len)
				for i := range b {
					if b[i] != byte(s.Off+i)*3+3 {
						t.Fatalf("segment %+v byte %d wrong", s, i)
					}
				}
			}
		}
	})
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// Receiver posts late: the message waits in the unexpected queue.
	w := run(t, 2, func(r *Rank) {
		buf := r.AllocHost(4096)
		switch r.Rank() {
		case 0:
			fillPattern(buf, 4096, 2)
			r.Send(buf, 4096, datatype.Byte, 1, 8)
		case 1:
			r.Proc().Sleep(10 * sim.Millisecond)
			r.Recv(buf, 4096, datatype.Byte, 0, 8)
			checkPattern(t, buf, 4096, 2, "late recv")
		}
	})
	if st := w.Rank(1).Stats(); st.Unexpected != 1 {
		t.Errorf("unexpected count = %d, want 1", st.Unexpected)
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	// RTS arrives before the receive is posted.
	const n = 1 << 18
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		switch r.Rank() {
		case 0:
			fillPattern(buf, n, 4)
			r.Send(buf, n, datatype.Byte, 1, 0)
		case 1:
			r.Proc().Sleep(20 * sim.Millisecond)
			r.Recv(buf, n, datatype.Byte, 0, 0)
			checkPattern(t, buf, n, 4, "late rendezvous")
		}
	})
}

func TestMessageOrderingSameTag(t *testing.T) {
	// MPI non-overtaking: two messages with the same envelope arrive in
	// send order.
	run(t, 2, func(r *Rank) {
		a, b := r.AllocHost(64), r.AllocHost(64)
		switch r.Rank() {
		case 0:
			fillPattern(a, 64, 10)
			fillPattern(b, 64, 20)
			r.Send(a, 64, datatype.Byte, 1, 0)
			r.Send(b, 64, datatype.Byte, 1, 0)
		case 1:
			r.Recv(a, 64, datatype.Byte, 0, 0)
			r.Recv(b, 64, datatype.Byte, 0, 0)
			checkPattern(t, a, 64, 10, "first")
			checkPattern(t, b, 64, 20, "second")
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, func(r *Rank) {
		a, b := r.AllocHost(64), r.AllocHost(64)
		switch r.Rank() {
		case 0:
			fillPattern(a, 64, 10)
			fillPattern(b, 64, 20)
			r.Send(a, 64, datatype.Byte, 1, 111)
			r.Send(b, 64, datatype.Byte, 1, 222)
		case 1:
			// Receive them in reverse tag order.
			r.Recv(b, 64, datatype.Byte, 0, 222)
			r.Recv(a, 64, datatype.Byte, 0, 111)
			checkPattern(t, a, 64, 10, "tag111")
			checkPattern(t, b, 64, 20, "tag222")
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(r *Rank) {
		buf := r.AllocHost(64)
		switch r.Rank() {
		case 0:
			fillPattern(buf, 64, 1)
			r.Send(buf, 64, datatype.Byte, 2, 7)
		case 1:
			fillPattern(buf, 64, 2)
			r.Proc().Sleep(sim.Millisecond)
			r.Send(buf, 64, datatype.Byte, 2, 9)
		case 2:
			st1 := r.Recv(buf, 64, datatype.Byte, AnySource, AnyTag)
			st2 := r.Recv(buf, 64, datatype.Byte, AnySource, AnyTag)
			if st1.Source == st2.Source {
				t.Errorf("same source twice: %+v %+v", st1, st2)
			}
			got := map[int]int{st1.Source: st1.Tag, st2.Source: st2.Tag}
			if got[0] != 7 || got[1] != 9 {
				t.Errorf("statuses: %+v %+v", st1, st2)
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	// Both directions in flight simultaneously complete without deadlock.
	const n = 1 << 20
	run(t, 2, func(r *Rank) {
		tx, rx := r.AllocHost(n), r.AllocHost(n)
		peer := 1 - r.Rank()
		fillPattern(tx, n, byte(10*r.Rank()))
		rq := r.Irecv(rx, n, datatype.Byte, peer, 0)
		sq := r.Isend(tx, n, datatype.Byte, peer, 0)
		r.Waitall(rq, sq)
		checkPattern(t, rx, n, byte(10*peer), "exchange")
	})
}

func TestTestPolling(t *testing.T) {
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(1 << 20)
		switch r.Rank() {
		case 0:
			r.Proc().Sleep(sim.Millisecond)
			r.Send(buf, 1<<20, datatype.Byte, 1, 0)
		case 1:
			q := r.Irecv(buf, 1<<20, datatype.Byte, 0, 0)
			polls := 0
			for {
				ok, st := r.Test(q)
				if ok {
					if st.Bytes != 1<<20 {
						t.Errorf("status = %+v", st)
					}
					break
				}
				polls++
				r.Proc().Sleep(100 * sim.Microsecond)
			}
			if polls == 0 {
				t.Error("Test returned true immediately for an in-flight rendezvous")
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	run(t, 2, func(r *Rank) {
		tx, rx := r.AllocHost(4096), r.AllocHost(4096)
		peer := 1 - r.Rank()
		fillPattern(tx, 4096, byte(5+r.Rank()))
		st := r.Sendrecv(tx, 4096, datatype.Byte, peer, 3, rx, 4096, datatype.Byte, peer, 3)
		if st.Source != peer {
			t.Errorf("status = %+v", st)
		}
		checkPattern(t, rx, 4096, byte(5+peer), "sendrecv")
	})
}

func TestSelfSend(t *testing.T) {
	for _, n := range []int{64, 1 << 20} {
		n := n
		run(t, 1, func(r *Rank) {
			tx, rx := r.AllocHost(n), r.AllocHost(n)
			fillPattern(tx, n, 6)
			q := r.Irecv(rx, n, datatype.Byte, 0, 1)
			r.Send(tx, n, datatype.Byte, 0, 1)
			r.Wait(q)
			checkPattern(t, rx, n, 6, fmt.Sprintf("self %dB", n))
		})
	}
}

func TestZeroByteMessage(t *testing.T) {
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(64)
		switch r.Rank() {
		case 0:
			r.Send(buf, 0, datatype.Byte, 1, 0)
		case 1:
			st := r.Recv(buf, 0, datatype.Byte, 0, 0)
			if st.Bytes != 0 {
				t.Errorf("bytes = %d", st.Bytes)
			}
		}
	})
}

func TestPartialReceive(t *testing.T) {
	// Receiving fewer bytes than the posted capacity is legal.
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(1024)
		switch r.Rank() {
		case 0:
			fillPattern(buf, 100, 3)
			r.Send(buf, 100, datatype.Byte, 1, 0)
		case 1:
			st := r.Recv(buf, 1024, datatype.Byte, 0, 0)
			if st.Bytes != 100 {
				t.Errorf("bytes = %d, want 100", st.Bytes)
			}
			checkPattern(t, buf, 100, 3, "partial")
		}
	})
}

func TestTruncationPanics(t *testing.T) {
	e, w := testWorld(2)
	w.Launch(func(r *Rank) {
		buf := r.AllocHost(1024)
		switch r.Rank() {
		case 0:
			r.Send(buf, 512, datatype.Byte, 1, 0)
		case 1:
			r.Recv(buf, 64, datatype.Byte, 0, 0)
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("truncation did not panic")
		}
	}()
	_ = e.Run()
}

func TestDeviceBufferWithoutTransportPanics(t *testing.T) {
	e, w := testWorld(2)
	dev := mem.NewDeviceSpace("gpu0", 0, 4096)
	w.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(dev.Base(), 64, datatype.Byte, 1, 0)
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("device buffer without transport did not panic")
		}
	}()
	_ = e.Run()
}

func TestUncommittedTypePanics(t *testing.T) {
	e, w := testWorld(2)
	v, _ := datatype.Vector(2, 1, 2, datatype.Byte)
	w.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.AllocHost(64), 1, v, 1, 0)
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("uncommitted type did not panic")
		}
	}()
	_ = e.Run()
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		n := n
		var exitTimes []sim.Time
		var minArrival sim.Time
		run(t, n, func(r *Rank) {
			// Stagger arrivals; nobody may leave before the last arrives.
			arrival := sim.Time(r.Rank()) * sim.Millisecond
			r.Proc().Sleep(arrival)
			if arrival > minArrival {
				minArrival = arrival
			}
			r.Barrier()
			exitTimes = append(exitTimes, r.Now())
		})
		for _, et := range exitTimes {
			if et < minArrival {
				t.Errorf("n=%d: rank left barrier at %v before last arrival %v", n, et, minArrival)
			}
		}
		if len(exitTimes) != n {
			t.Errorf("n=%d: %d ranks completed", n, len(exitTimes))
		}
	}
}

func TestBcast(t *testing.T) {
	for _, root := range []int{0, 2} {
		root := root
		run(t, 5, func(r *Rank) {
			buf := r.AllocHost(4096)
			if r.Rank() == root {
				fillPattern(buf, 4096, 9)
			}
			r.Bcast(buf, 4096, datatype.Byte, root)
			checkPattern(t, buf, 4096, 9, fmt.Sprintf("bcast root %d rank %d", root, r.Rank()))
		})
	}
}

func TestReduceSum(t *testing.T) {
	const count = 16
	run(t, 4, func(r *Rank) {
		in, out := r.AllocHost(count*8), r.AllocHost(count*8)
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = float64(r.Rank()+1) * float64(i+1)
		}
		writeF64(in, vals)
		r.Reduce(in, out, count, OpSum, 0)
		if r.Rank() == 0 {
			got := make([]float64, count)
			readF64(out, got)
			for i := range got {
				want := float64(1+2+3+4) * float64(i+1)
				if got[i] != want {
					t.Errorf("reduce[%d] = %v, want %v", i, got[i], want)
				}
			}
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	run(t, 6, func(r *Rank) {
		in, out := r.AllocHost(8), r.AllocHost(8)
		writeF64(in, []float64{float64(r.Rank() * 10)})
		r.Allreduce(in, out, 1, OpMax)
		got := make([]float64, 1)
		readF64(out, got)
		if got[0] != 50 {
			t.Errorf("rank %d allreduce = %v, want 50", r.Rank(), got[0])
		}
	})
}

func TestGather(t *testing.T) {
	const count = 8
	run(t, 4, func(r *Rank) {
		in := r.AllocHost(count)
		mem.Fill(in, count, func(i int) byte { return byte(r.Rank()*100 + i) })
		var out mem.Ptr
		if r.Rank() == 1 {
			out = r.AllocHost(4 * count)
		}
		r.Gather(in, count, datatype.Byte, out, 1)
		if r.Rank() == 1 {
			for src := 0; src < 4; src++ {
				b := out.Add(src * count).Bytes(count)
				for i := range b {
					if b[i] != byte(src*100+i) {
						t.Fatalf("gather[%d][%d] = %d", src, i, b[i])
					}
				}
			}
		}
	})
}

func TestWtimeAdvances(t *testing.T) {
	run(t, 1, func(r *Rank) {
		t0 := r.Wtime()
		r.Proc().Sleep(sim.Second)
		if dt := r.Wtime() - t0; dt < 0.99 || dt > 1.01 {
			t.Errorf("Wtime delta = %v, want 1s", dt)
		}
	})
}

func TestHostHeapAllocFree(t *testing.T) {
	run(t, 1, func(r *Rank) {
		a := r.AllocHost(1024)
		b := r.AllocHost(1024)
		if a.Offset() == b.Offset() {
			t.Error("overlapping heap allocations")
		}
		r.FreeHost(a)
		r.FreeHost(b)
	})
}

func TestZeroCopyContiguousRendezvous(t *testing.T) {
	// A contiguous host receive should not allocate a temp buffer: the
	// heap in-use watermark stays flat during the transfer.
	const n = 1 << 20
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		switch r.Rank() {
		case 0:
			fillPattern(buf, n, 1)
			r.Send(buf, n, datatype.Byte, 1, 0)
		case 1:
			before := r.host.PeakInUse()
			r.Recv(buf, n, datatype.Byte, 0, 0)
			if after := r.host.PeakInUse(); after != before {
				t.Errorf("contiguous recv allocated temp memory (%d -> %d)", before, after)
			}
		}
	})
}

// Property: an arbitrary random traffic pattern (sizes spanning eager and
// rendezvous, mixed tags) delivers every message intact, exactly once.
func TestPropRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := 2 + rng.Intn(3)
		nmsgs := 1 + rng.Intn(6)
		type msgSpec struct {
			src, dst, tag, size int
			seed                byte
		}
		var specs []msgSpec
		for i := 0; i < nmsgs; i++ {
			src := rng.Intn(nranks)
			dst := rng.Intn(nranks)
			for dst == src {
				dst = rng.Intn(nranks)
			}
			sizes := []int{0, 17, 4096, 100_000, 1 << 20}
			specs = append(specs, msgSpec{src, dst, i, sizes[rng.Intn(len(sizes))], byte(i + 1)})
		}
		e, w := testWorld(nranks)
		ok := true
		w.Launch(func(r *Rank) {
			var reqs []*Request
			var bufs []mem.Ptr
			var checks []msgSpec
			for _, s := range specs {
				if s.dst == r.Rank() {
					buf := r.AllocHost(s.size + 1)
					reqs = append(reqs, r.Irecv(buf, s.size, datatype.Byte, s.src, s.tag))
					bufs = append(bufs, buf)
					checks = append(checks, s)
				}
			}
			for _, s := range specs {
				if s.src == r.Rank() {
					buf := r.AllocHost(s.size + 1)
					mem.Fill(buf, s.size, func(i int) byte { return byte(i)*5 + s.seed })
					r.Send(buf, s.size, datatype.Byte, s.dst, s.tag)
				}
			}
			r.Waitall(reqs...)
			for i, s := range checks {
				b := bufs[i].Bytes(s.size)
				for j := range b {
					if b[j] != byte(j)*5+s.seed {
						ok = false
					}
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: collectives agree with their sequential definitions for random
// world sizes and values.
func TestPropAllreduceCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		count := 1 + rng.Intn(16)
		contrib := make([][]float64, n)
		expect := make([]float64, count)
		for i := 0; i < n; i++ {
			contrib[i] = make([]float64, count)
			for j := range contrib[i] {
				contrib[i][j] = float64(rng.Intn(1000))
				expect[j] += contrib[i][j]
			}
		}
		e, w := testWorld(n)
		ok := true
		w.Launch(func(r *Rank) {
			in, out := r.AllocHost(count*8), r.AllocHost(count*8)
			writeF64(in, contrib[r.Rank()])
			r.Allreduce(in, out, count, OpSum)
			got := make([]float64, count)
			readF64(out, got)
			for j := range got {
				if got[j] != expect[j] {
					ok = false
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestZeroCopyMatchesSegments pins the O(1) zero-copy test of the host
// rendezvous paths to its definition: count elements expand to exactly
// one segment, at offset 0.
func TestZeroCopyMatchesSegments(t *testing.T) {
	must := func(dt *datatype.Datatype, err error) *datatype.Datatype {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return dt.MustCommit()
	}
	contig := must(datatype.Contiguous(6, datatype.Int32))
	types := []*datatype.Datatype{
		datatype.Byte,
		contig,
		must(datatype.Vector(4, 2, 3, datatype.Int32)),
		must(datatype.Vector(4, 3, 3, datatype.Int32)),
		must(datatype.Resized(contig, 0, 32)),
		must(datatype.Hindexed([]int{2}, []int{8}, datatype.Int32)),
		must(datatype.Struct([]int{1, 1}, []int{0, 4}, []*datatype.Datatype{datatype.Int32, datatype.Float32})),
		must(datatype.Contiguous(0, datatype.Int32)),
	}
	for _, dt := range types {
		for _, count := range []int{0, 1, 3} {
			segs := dt.SegmentsOf(count)
			want := len(segs) == 1 && segs[0].Off == 0
			if got := zeroCopy(dt, count); got != want {
				t.Errorf("%s count=%d: zeroCopy = %v, want %v (segments %v)", dt, count, got, want, segs)
			}
		}
	}
}

// TestEagerBuffersNotAliased: a recycled eager buffer never serves two
// live messages. Message 2 arrives unexpected and its recycled copy waits
// while messages 1 and 3, of the same size, pass through the recycler;
// the sender rewrites its buffers as soon as each send completes. All
// three arrive byte-exact, and the recycler's counters show buffers were
// reused during the run.
func TestEagerBuffersNotAliased(t *testing.T) {
	const n = 4096
	before := mem.Recycled()
	w := run(t, 2, func(r *Rank) {
		bufs := [4]mem.Ptr{}
		for i := 1; i <= 3; i++ {
			bufs[i] = r.AllocHost(n)
		}
		switch r.Rank() {
		case 0:
			fillPattern(bufs[2], n, 2)
			fillPattern(bufs[1], n, 1)
			q2 := r.Isend(bufs[2], n, datatype.Byte, 1, 2)
			q1 := r.Isend(bufs[1], n, datatype.Byte, 1, 1)
			r.Waitall(q1, q2)
			fillPattern(bufs[1], n, 9)
			fillPattern(bufs[2], n, 9)
			fillPattern(bufs[3], n, 3)
			r.Send(bufs[3], n, datatype.Byte, 1, 3)
			fillPattern(bufs[3], n, 9)
		case 1:
			r.Recv(bufs[1], n, datatype.Byte, 0, 1)
			r.Recv(bufs[3], n, datatype.Byte, 0, 3)
			r.Recv(bufs[2], n, datatype.Byte, 0, 2) // long since arrived
			for i := 1; i <= 3; i++ {
				checkPattern(t, bufs[i], n, byte(i), fmt.Sprintf("message %d", i))
			}
		}
	})
	if st := w.Rank(1).Stats(); st.Unexpected == 0 {
		t.Error("no message took the unexpected path")
	}
	if mem.Recycled().Reused() == before.Reused() {
		t.Error("no buffer was reused during the run")
	}
}
