package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mv2sim/internal/datatype"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

func TestWorldComm(t *testing.T) {
	run(t, 3, func(r *Rank) {
		c := r.Comm()
		if c.Size() != 3 || c.Rank() != r.Rank() {
			t.Errorf("world comm shape: size=%d rank=%d", c.Size(), c.Rank())
		}
		if c.WorldRank(2) != 2 {
			t.Error("world comm rank translation")
		}
	})
}

func TestCommSendRecv(t *testing.T) {
	run(t, 2, func(r *Rank) {
		c := r.Comm()
		buf := r.AllocHost(256)
		switch c.Rank() {
		case 0:
			fillPattern(buf, 256, 3)
			c.Send(buf, 256, datatype.Byte, 1, 9)
		case 1:
			st := c.Recv(buf, 256, datatype.Byte, 0, 9)
			if st.Source != 0 || st.Bytes != 256 {
				t.Errorf("status = %+v", st)
			}
			checkPattern(t, buf, 256, 3, "comm recv")
		}
	})
}

func TestSplitByParity(t *testing.T) {
	// 6 ranks split into even/odd groups; each group runs its own
	// collective without interference.
	run(t, 6, func(r *Rank) {
		sub := r.Comm().Split(r.Rank()%2, r.Rank())
		if sub == nil {
			t.Fatalf("rank %d got nil comm", r.Rank())
		}
		if sub.Size() != 3 {
			t.Errorf("rank %d: sub size = %d", r.Rank(), sub.Size())
		}
		if want := r.Rank() / 2; sub.Rank() != want {
			t.Errorf("rank %d: sub rank = %d, want %d", r.Rank(), sub.Rank(), want)
		}
		// Group allreduce: sums of even vs odd world ranks.
		in, out := r.AllocHost(8), r.AllocHost(8)
		writeF64(in, []float64{float64(r.Rank())})
		sub.Allreduce(in, out, 1, OpSum)
		got := make([]float64, 1)
		readF64(out, got)
		want := 0.0 + 2 + 4
		if r.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if got[0] != want {
			t.Errorf("rank %d: group sum = %v, want %v", r.Rank(), got[0], want)
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	run(t, 4, func(r *Rank) {
		color := 0
		if r.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := r.Comm().Split(color, 0)
		if r.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color returned a communicator")
			}
			return
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: sub = %v", r.Rank(), sub)
		}
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	run(t, 4, func(r *Rank) {
		// Reverse rank order via descending keys.
		sub := r.Comm().Split(0, -r.Rank())
		if want := 3 - r.Rank(); sub.Rank() != want {
			t.Errorf("rank %d: sub rank = %d, want %d", r.Rank(), sub.Rank(), want)
		}
	})
}

func TestDupIsolation(t *testing.T) {
	// A message sent on the dup must not match a receive on the world comm.
	run(t, 2, func(r *Rank) {
		dup := r.Comm().Dup()
		buf := r.AllocHost(64)
		switch r.Rank() {
		case 0:
			fillPattern(buf, 64, 1)
			dup.Send(buf, 64, datatype.Byte, 1, 0)
			fillPattern(buf, 64, 2)
			r.Send(buf, 64, datatype.Byte, 1, 0) // world comm, same tag
		case 1:
			// Receive in the opposite order: world first, then dup.
			r.Recv(buf, 64, datatype.Byte, 0, 0)
			checkPattern(t, buf, 64, 2, "world message")
			dup.Recv(buf, 64, datatype.Byte, 0, 0)
			checkPattern(t, buf, 64, 1, "dup message")
		}
	})
}

func TestScatterGatherRoundTrip(t *testing.T) {
	const per = 16
	run(t, 4, func(r *Rank) {
		c := r.Comm()
		var root, out mem.Ptr
		if r.Rank() == 2 {
			root = r.AllocHost(4 * per)
			mem.Fill(root, 4*per, func(i int) byte { return byte(i * 3) })
			out = r.AllocHost(4 * per)
		}
		mine := r.AllocHost(per)
		c.Scatter(root, per, datatype.Byte, mine, 2)
		for i := 0; i < per; i++ {
			if mine.Bytes(per)[i] != byte((r.Rank()*per+i)*3) {
				t.Fatalf("rank %d scatter byte %d wrong", r.Rank(), i)
			}
		}
		c.Gather(mine, per, datatype.Byte, out, 2)
		if r.Rank() == 2 && !mem.Equal(out, root, 4*per) {
			t.Error("gather(scatter(x)) != x")
		}
	})
}

func TestAllgather(t *testing.T) {
	const per = 8
	for _, n := range []int{2, 3, 5} {
		n := n
		run(t, n, func(r *Rank) {
			c := r.Comm()
			in := r.AllocHost(per)
			mem.Fill(in, per, func(i int) byte { return byte(r.Rank()*100 + i) })
			out := r.AllocHost(n * per)
			c.Allgather(in, per, datatype.Byte, out)
			for src := 0; src < n; src++ {
				b := out.Add(src * per).Bytes(per)
				for i := range b {
					if b[i] != byte(src*100+i) {
						t.Fatalf("n=%d rank %d: allgather[%d][%d] = %d", n, r.Rank(), src, i, b[i])
					}
				}
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	const per = 4
	run(t, 4, func(r *Rank) {
		c := r.Comm()
		in := r.AllocHost(4 * per)
		out := r.AllocHost(4 * per)
		// Block j carries (me, j) markers.
		for j := 0; j < 4; j++ {
			mem.Fill(in.Add(j*per), per, func(i int) byte { return byte(r.Rank()*16 + j) })
		}
		c.Alltoall(in, per, datatype.Byte, out)
		// Slot i must hold (i, me).
		for i := 0; i < 4; i++ {
			b := out.Add(i * per).Bytes(per)
			for k := range b {
				if b[k] != byte(i*16+r.Rank()) {
					t.Fatalf("rank %d: alltoall slot %d = %d, want %d", r.Rank(), i, b[k], i*16+r.Rank())
				}
			}
		}
	})
}

func TestCartTopology(t *testing.T) {
	run(t, 8, func(r *Rank) {
		cart := r.Comm().CartCreate([]int{2, 4}, []bool{false, false})
		coords := cart.Coords(cart.Rank())
		if want := []int{r.Rank() / 4, r.Rank() % 4}; !reflect.DeepEqual(coords, want) {
			t.Errorf("rank %d coords = %v, want %v", r.Rank(), coords, want)
		}
		if cart.CartRank(coords) != cart.Rank() {
			t.Error("CartRank(Coords) != rank")
		}
		// Shifts at rank 1 (row 0, col 1): north none, south 5, west 0, east 2.
		if r.Rank() == 1 {
			srcNS, dstNS := cart.Shift(0, 1) // dim 0 = rows: dst is south
			if srcNS != ProcNull || dstNS != 5 {
				t.Errorf("row shift = (%d,%d), want (ProcNull,5)", srcNS, dstNS)
			}
			srcEW, dstEW := cart.Shift(1, 1)
			if srcEW != 0 || dstEW != 2 {
				t.Errorf("col shift = (%d,%d), want (0,2)", srcEW, dstEW)
			}
		}
	})
}

func TestCartPeriodicWrap(t *testing.T) {
	run(t, 4, func(r *Rank) {
		ring := r.Comm().CartCreate([]int{4}, []bool{true})
		src, dst := ring.Shift(0, 1)
		if src != (r.Rank()+3)%4 || dst != (r.Rank()+1)%4 {
			t.Errorf("rank %d: ring shift = (%d,%d)", r.Rank(), src, dst)
		}
		// A full ring rotation through Sendrecv with wrap.
		buf, got := r.AllocHost(8), r.AllocHost(8)
		writeF64(buf, []float64{float64(r.Rank())})
		ring.Sendrecv(buf, 1, datatype.Float64, dst, 0, got, 1, datatype.Float64, src, 0)
		v := make([]float64, 1)
		readF64(got, v)
		if v[0] != float64(src) {
			t.Errorf("rank %d received %v from %d", r.Rank(), v[0], src)
		}
	})
}

func TestCartValidation(t *testing.T) {
	run(t, 4, func(r *Rank) {
		c := r.Comm()
		for _, bad := range []func(){
			func() { c.CartCreate([]int{3}, []bool{false}) },                    // wrong product
			func() { c.CartCreate([]int{2, 2}, []bool{false}) },                 // arity mismatch
			func() { c.CartCreate([]int{0, 4}, []bool{false, false}) },          // zero dim
			func() { c.CartCreate([]int{4}, []bool{false}).Shift(1, 1) },        // bad dim
			func() { c.CartCreate([]int{4}, []bool{false}).CartRank([]int{9}) }, // out of range
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("invalid cartesian call did not panic")
					}
				}()
				bad()
			}()
		}
	})
}

func TestProcNullCommunication(t *testing.T) {
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(64)
		// Blocking ops with ProcNull complete instantly and move nothing.
		t0 := r.Now()
		r.Send(buf, 64, datatype.Byte, ProcNull, 0)
		st := r.Recv(buf, 64, datatype.Byte, ProcNull, 0)
		if st.Source != ProcNull || st.Bytes != 0 {
			t.Errorf("ProcNull status = %+v", st)
		}
		if r.Now()-t0 > 2*sim.Microsecond {
			t.Errorf("ProcNull ops took %v", r.Now()-t0)
		}
	})
}

func TestProbeBlocking(t *testing.T) {
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(512)
		switch r.Rank() {
		case 0:
			r.Proc().Sleep(5 * sim.Millisecond)
			fillPattern(buf, 512, 7)
			r.Send(buf, 512, datatype.Byte, 1, 4)
		case 1:
			st := r.Probe(0, 4)
			if st.Bytes != 512 || st.Source != 0 || st.Tag != 4 {
				t.Errorf("probe status = %+v", st)
			}
			if r.Now() < 5*sim.Millisecond {
				t.Error("probe returned before the message was sent")
			}
			// The message is still receivable.
			r.Recv(buf, st.Bytes, datatype.Byte, st.Source, st.Tag)
			checkPattern(t, buf, 512, 7, "post-probe recv")
		}
	})
}

func TestIprobe(t *testing.T) {
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(64)
		switch r.Rank() {
		case 0:
			r.Send(buf, 64, datatype.Byte, 1, 1)
		case 1:
			if ok, _ := r.Iprobe(0, 99); ok {
				t.Error("Iprobe matched wrong tag")
			}
			for {
				ok, st := r.Iprobe(0, 1)
				if ok {
					if st.Bytes != 64 {
						t.Errorf("status = %+v", st)
					}
					break
				}
				r.Proc().Sleep(10 * sim.Microsecond)
			}
			r.Recv(buf, 64, datatype.Byte, 0, 1)
		}
	})
}

func TestSsendWaitsForMatch(t *testing.T) {
	run(t, 2, func(r *Rank) {
		buf := r.AllocHost(256)
		switch r.Rank() {
		case 0:
			fillPattern(buf, 256, 2)
			t0 := r.Now()
			r.Ssend(buf, 256, datatype.Byte, 1, 0)
			// The receiver posts at 10ms; a synchronous send cannot
			// complete before that.
			if r.Now()-t0 < 9*sim.Millisecond {
				t.Errorf("Ssend completed at %v, before the receive was posted", r.Now()-t0)
			}
		case 1:
			r.Proc().Sleep(10 * sim.Millisecond)
			r.Recv(buf, 256, datatype.Byte, 0, 0)
			checkPattern(t, buf, 256, 2, "ssend recv")
		}
	})
}

func TestWaitany(t *testing.T) {
	run(t, 3, func(r *Rank) {
		buf1, buf2 := r.AllocHost(64), r.AllocHost(64)
		switch r.Rank() {
		case 0:
			r.Proc().Sleep(20 * sim.Millisecond)
			r.Send(buf1, 64, datatype.Byte, 2, 1)
		case 1:
			r.Proc().Sleep(5 * sim.Millisecond)
			r.Send(buf2, 64, datatype.Byte, 2, 2)
		case 2:
			q1 := r.Irecv(buf1, 64, datatype.Byte, 0, 1)
			q2 := r.Irecv(buf2, 64, datatype.Byte, 1, 2)
			idx, st := r.Waitany(q1, q2)
			if idx != 1 || st.Source != 1 {
				t.Errorf("Waitany = (%d, %+v), want rank 1 first", idx, st)
			}
			r.Waitall(q1, q2)
		}
	})
}

func TestOpProd(t *testing.T) {
	run(t, 3, func(r *Rank) {
		in, out := r.AllocHost(8), r.AllocHost(8)
		writeF64(in, []float64{float64(r.Rank() + 2)}) // 2,3,4
		r.Allreduce(in, out, 1, OpProd)
		got := make([]float64, 1)
		readF64(out, got)
		if got[0] != 24 {
			t.Errorf("prod = %v, want 24", got[0])
		}
	})
}

func TestSplitSubCommunicatorsConcurrently(t *testing.T) {
	// Two sub-communicators exchange simultaneously with the same tags;
	// context isolation keeps the traffic apart.
	run(t, 4, func(r *Rank) {
		sub := r.Comm().Split(r.Rank()%2, 0)
		buf := r.AllocHost(1 << 16)
		peer := 1 - sub.Rank()
		fillPattern(buf, 1<<16, byte(10+r.Rank()))
		rx := r.AllocHost(1 << 16)
		rq := sub.Irecv(rx, 1<<16, datatype.Byte, peer, 0)
		sq := sub.Isend(buf, 1<<16, datatype.Byte, peer, 0)
		r.Waitall(rq, sq)
		expectedWorldPeer := sub.WorldRank(peer)
		checkPattern(t, rx, 1<<16, byte(10+expectedWorldPeer), fmt.Sprintf("rank %d", r.Rank()))
	})
}

func TestPersistentRequests(t *testing.T) {
	// The classic persistent-request stencil pattern: bind once, Start
	// every iteration.
	run(t, 2, func(r *Rank) {
		const n = 4096
		buf := r.AllocHost(n)
		peer := 1 - r.Rank()
		var send, recv *PRequest
		if r.Rank() == 0 {
			send = r.SendInit(buf, n, datatype.Byte, peer, 0)
		} else {
			recv = r.RecvInit(buf, n, datatype.Byte, peer, 0)
		}
		for it := 0; it < 3; it++ {
			if r.Rank() == 0 {
				fillPattern(buf, n, byte(it))
				send.Start()
				send.Wait()
			} else {
				recv.Start()
				st := recv.Wait()
				if st.Bytes != n {
					t.Errorf("iter %d: bytes = %d", it, st.Bytes)
				}
				checkPattern(t, buf, n, byte(it), fmt.Sprintf("iter %d", it))
			}
			r.Barrier()
		}
	})
}

func TestPersistentStartall(t *testing.T) {
	run(t, 2, func(r *Rank) {
		tx, rx := r.AllocHost(256), r.AllocHost(256)
		peer := 1 - r.Rank()
		send := r.SendInit(tx, 256, datatype.Byte, peer, 0)
		recv := r.RecvInit(rx, 256, datatype.Byte, peer, 0)
		fillPattern(tx, 256, byte(40+r.Rank()))
		Startall(recv, send)
		r.WaitallPersistent(recv, send)
		checkPattern(t, rx, 256, byte(40+peer), "startall")
	})
}

func TestPersistentMisusePanics(t *testing.T) {
	run(t, 1, func(r *Rank) {
		buf := r.AllocHost(8)
		pq := r.RecvInit(buf, 8, datatype.Byte, 0, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Wait on inactive persistent request did not panic")
				}
			}()
			pq.Wait()
		}()
	})
}

// getWorld builds a world running the get-based rendezvous protocol.
func runGet(t *testing.T, n int, fn func(r *Rank)) *World {
	t.Helper()
	e := sim.New()
	fabric := ib.NewFabric(e, ib.Model{})
	w := NewWorld(e, Config{Rendezvous: RendezvousGet})
	for i := 0; i < n; i++ {
		w.AddRank(fabric.NewHCA(i), mem.Reserve(mem.Host, fmt.Sprintf("host%d", i), -1, 64<<20))
	}
	w.Launch(fn)
	if err := e.Run(); err != nil {
		t.Fatalf("simulation did not drain: %v", err)
	}
	return w
}

func TestGetRendezvousContiguous(t *testing.T) {
	const n = 1 << 20
	runGet(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		switch r.Rank() {
		case 0:
			fillPattern(buf, n, 5)
			r.Send(buf, n, datatype.Byte, 1, 0)
		case 1:
			st := r.Recv(buf, n, datatype.Byte, 0, 0)
			if st.Bytes != n {
				t.Errorf("bytes = %d", st.Bytes)
			}
			checkPattern(t, buf, n, 5, "get rendezvous")
		}
	})
}

func TestGetRendezvousNonContiguous(t *testing.T) {
	v, _ := datatype.Vector(32768, 4, 8, datatype.Byte) // 128 KB packed
	v.MustCommit()
	runGet(t, 2, func(r *Rank) {
		buf := r.AllocHost(v.Span(1))
		switch r.Rank() {
		case 0:
			fillPattern(buf, v.Span(1), 9)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			r.Recv(buf, 1, v, 0, 0)
			for _, s := range v.SegmentsOf(1) {
				b := buf.Add(s.Off).Bytes(s.Len)
				for i := range b {
					if b[i] != byte(s.Off+i)*3+9 {
						t.Fatalf("segment %+v byte %d wrong", s, i)
					}
				}
			}
		}
	})
}

func TestGetRendezvousUnexpected(t *testing.T) {
	// Get-RTS arrives before the receive is posted.
	const n = 1 << 18
	runGet(t, 2, func(r *Rank) {
		buf := r.AllocHost(n)
		switch r.Rank() {
		case 0:
			fillPattern(buf, n, 2)
			r.Send(buf, n, datatype.Byte, 1, 0)
		case 1:
			r.Proc().Sleep(10 * sim.Millisecond)
			r.Recv(buf, n, datatype.Byte, 0, 0)
			checkPattern(t, buf, n, 2, "unexpected get")
		}
	})
}

func TestGetRendezvousSenderHeapClean(t *testing.T) {
	// The sender's temp/registration must be released after DONE.
	v, _ := datatype.Vector(32768, 4, 8, datatype.Byte)
	v.MustCommit()
	w := runGet(t, 2, func(r *Rank) {
		buf := r.AllocHost(v.Span(1))
		switch r.Rank() {
		case 0:
			r.Send(buf, 1, v, 1, 0)
		case 1:
			r.Recv(buf, 1, v, 0, 0)
		}
	})
	// Only the application buffer remains on the sender heap.
	if live := w.Rank(0).host.Mappings(); live != 1 {
		t.Errorf("sender heap live allocations = %d, want 1", live)
	}
}

// Property: random strided datatypes on both sides of a transfer (packed
// sizes spanning eager and rendezvous, both protocols) deliver exactly the
// type-map-ordered bytes.
func TestPropTypedTrafficBothProtocols(t *testing.T) {
	f := func(seed int64, useGet bool) bool {
		rng := rand.New(rand.NewSource(seed))
		mkType := func() *datatype.Datatype {
			blocklen := 1 + rng.Intn(6)
			stride := blocklen + rng.Intn(6)
			count := 1 + rng.Intn(20000)
			v, err := datatype.Vector(count, blocklen, stride, datatype.Byte)
			if err != nil {
				return nil
			}
			return v.MustCommit()
		}
		sendT := mkType()
		// The receive side uses its own independent layout with the same
		// packed size.
		recvStride := 1 + rng.Intn(8)
		recvT, err := datatype.Vector(sendT.Size(), 1, 1+recvStride, datatype.Byte)
		if err != nil {
			return false
		}
		recvT.MustCommit()

		cfg := Config{}
		if useGet {
			cfg.Rendezvous = RendezvousGet
		}
		e := sim.New()
		fabric := ib.NewFabric(e, ib.Model{})
		w := NewWorld(e, cfg)
		for i := 0; i < 2; i++ {
			w.AddRank(fabric.NewHCA(i), mem.Reserve(mem.Host, fmt.Sprintf("host%d", i), -1, 64<<20))
		}
		ok := true
		w.Launch(func(r *Rank) {
			switch r.Rank() {
			case 0:
				buf := r.AllocHost(sendT.Span(1))
				mem.Fill(buf, sendT.Span(1), func(i int) byte { return byte(i*13 + 1) })
				r.Send(buf, 1, sendT, 1, 0)
			case 1:
				buf := r.AllocHost(recvT.Span(1))
				r.Recv(buf, 1, recvT, 0, 0)
				// Packed(recv layout) must equal packed(send layout).
				got := make([]byte, recvT.Size())
				recvT.PackBytes(got, buf, 1)
				ref := mem.NewHostSpace("ref", sendT.Span(1))
				mem.Fill(ref.Base(), sendT.Span(1), func(i int) byte { return byte(i*13 + 1) })
				want := make([]byte, sendT.Size())
				sendT.PackBytes(want, ref.Base(), 1)
				for i := range want {
					if got[i] != want[i] {
						ok = false
						return
					}
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		e.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
