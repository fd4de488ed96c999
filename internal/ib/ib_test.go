package ib

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

type net struct {
	e    *sim.Engine
	f    *Fabric
	hcas []*HCA
	host []*mem.Space
}

// RDMAWrite is RDMAWriteRail on rail 0.
func (h *HCA) RDMAWrite(dst int, src mem.Ptr, n int, rkey uint32, roff int) *sim.Event {
	return h.RDMAWriteRail(dst, src, n, rkey, roff, 0)
}

// RDMAWriteRail is RDMAWriteRailInto untraced, completing a fresh event.
func (h *HCA) RDMAWriteRail(dst int, src mem.Ptr, n int, rkey uint32, roff, railIdx int) *sim.Event {
	done := new(sim.Event)
	h.RDMAWriteRailInto(done, dst, src, n, rkey, roff, railIdx, obs.Span{}, -1)
	return done
}

// newNet wires n HCAs to one fabric on a fresh engine.
func newNet(n int) *net {
	e := sim.New()
	f := NewFabric(e, Model{})
	nw := &net{e: e, f: f}
	for i := 0; i < n; i++ {
		nw.hcas = append(nw.hcas, f.NewHCA(i))
		nw.host = append(nw.host, mem.NewHostSpace(fmt.Sprintf("host%d", i), 1<<20))
	}
	return nw
}

// PostSendRailInto is HandOffSendRailInto of a snapshot of payload taken
// at post time, counted as copied bytes: a send whose caller lends its
// buffer instead of handing it over, as the tests here post.
func (h *HCA) PostSendRailInto(done *sim.Event, dst int, msg Message, payload []byte, railIdx int) {
	snap := mem.GetBytes(len(payload))
	h.f.bytes.Copy(snap, payload)
	h.HandOffSendRailInto(done, dst, msg, snap, railIdx)
}

// postSend posts on rail 0 and returns the event that fires at local
// completion.
func postSend(h *HCA, dst int, msg Message, payload []byte) *sim.Event {
	done := new(sim.Event)
	h.PostSendRailInto(done, dst, msg, payload, 0)
	return done
}

func TestPostSendDelivery(t *testing.T) {
	nw := newNet(2)
	type hello struct{ N int }
	var gotFrom, gotN int
	var gotPayload []byte
	var deliveredAt sim.Time
	nw.hcas[1].SetHandler(func(from int, msg Message, payload []byte) {
		gotFrom = from
		gotN = msg.(hello).N
		gotPayload = append([]byte(nil), payload...)
		deliveredAt = nw.e.Now()
	})
	nw.e.Spawn("sender", func(p *sim.Proc) {
		ev := postSend(nw.hcas[0], 1, hello{42}, []byte("abc"))
		p.Wait(ev)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotFrom != 0 || gotN != 42 || string(gotPayload) != "abc" {
		t.Errorf("delivery = from %d msg %d payload %q", gotFrom, gotN, gotPayload)
	}
	m := nw.f.Model()
	if deliveredAt < m.Latency {
		t.Errorf("delivered at %v, before wire latency %v", deliveredAt, m.Latency)
	}
}

func TestPayloadSnapshotAtPostTime(t *testing.T) {
	nw := newNet(2)
	buf := []byte{1, 2, 3, 4}
	var got []byte
	nw.hcas[1].SetHandler(func(from int, msg Message, payload []byte) {
		got = append([]byte(nil), payload...)
	})
	nw.e.Spawn("sender", func(p *sim.Proc) {
		postSend(nw.hcas[0], 1, nil, buf)
		buf[0] = 99 // mutate after post; receiver must see the snapshot
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("payload = %v, snapshot semantics violated", got)
	}
}

func TestRDMAWriteDepositsBytes(t *testing.T) {
	nw := newNet(2)
	nw.hcas[1].SetHandler(func(int, Message, []byte) {})
	dst := nw.host[1].Base().Add(128)
	reg := nw.hcas[1].Register(dst, 4096)
	src := nw.host[0].Base()
	mem.Fill(src, 4096, func(i int) byte { return byte(i * 13) })
	nw.e.Spawn("sender", func(p *sim.Proc) {
		ev := nw.hcas[0].RDMAWrite(1, src, 1024, reg.Rkey, 256)
		p.Wait(ev)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.Equal(dst.Add(256), src, 1024) {
		t.Error("RDMA write did not deposit bytes at the right offset")
	}
	st0, st1 := nw.hcas[0].Stats(), nw.hcas[1].Stats()
	if st0.RDMAWrites != 1 || st0.BytesTx == 0 || st1.BytesRx == 0 {
		t.Errorf("stats: tx=%+v rx=%+v", st0, st1)
	}
}

func TestRDMAThenSendOrdering(t *testing.T) {
	// A send posted after an RDMA write must observe the written bytes on
	// the remote side — the FIN-message invariant of the paper's pipeline.
	nw := newNet(2)
	dst := nw.host[1].Base()
	reg := nw.hcas[1].Register(dst, 1<<16)
	src := nw.host[0].Base()
	mem.Fill(src, 1<<16, func(i int) byte { return 0x7E })
	sawData := false
	nw.hcas[1].SetHandler(func(from int, msg Message, payload []byte) {
		sawData = dst.Bytes(1 << 16)[65535] == 0x7E
	})
	nw.e.Spawn("sender", func(p *sim.Proc) {
		nw.hcas[0].RDMAWrite(1, src, 1<<16, reg.Rkey, 0)
		postSend(nw.hcas[0], 1, "fin", nil)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawData {
		t.Error("FIN delivered before RDMA data landed")
	}
}

func TestSendsFromOneHCASerialize(t *testing.T) {
	nw := newNet(3)
	const n = 1 << 20
	for _, h := range nw.hcas[1:] {
		h.SetHandler(func(int, Message, []byte) {})
	}
	var done1, done2 sim.Time
	nw.e.Spawn("sender", func(p *sim.Proc) {
		e1 := postSend(nw.hcas[0], 1, nil, make([]byte, n))
		e2 := postSend(nw.hcas[0], 2, nil, make([]byte, n))
		p.WaitAll(e1, e2)
		done1, done2 = e1.FiredAt(), e2.FiredAt()
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	wire := sim.DurationOf(n, nw.f.Model().Bandwidth)
	if done2 < done1+wire {
		t.Errorf("egress did not serialize: %v then %v (wire %v)", done1, done2, wire)
	}
}

func TestDisjointPairsOverlap(t *testing.T) {
	nw := newNet(4)
	const n = 1 << 20
	for _, h := range nw.hcas {
		h.SetHandler(func(int, Message, []byte) {})
	}
	var end sim.Time
	nw.e.Spawn("main", func(p *sim.Proc) {
		e1 := postSend(nw.hcas[0], 1, nil, make([]byte, n))
		e2 := postSend(nw.hcas[2], 3, nil, make([]byte, n))
		p.WaitAll(e1, e2)
		end = p.Now()
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	one := sim.DurationOf(n, nw.f.Model().Bandwidth)
	if end > one+one/2 {
		t.Errorf("disjoint pairs serialized: end=%v, single wire=%v", end, one)
	}
}

func TestRegisterDeviceMemoryPanics(t *testing.T) {
	nw := newNet(1)
	dev := mem.NewDeviceSpace("gpu", 0, 4096)
	defer func() {
		if recover() == nil {
			t.Error("registering device memory did not panic")
		}
	}()
	nw.hcas[0].Register(dev.Base(), 64)
}

func TestRDMAToUnknownRkeyPanics(t *testing.T) {
	nw := newNet(2)
	src := nw.host[0].Base()
	nw.e.Spawn("sender", func(p *sim.Proc) {
		nw.hcas[0].RDMAWrite(1, src, 16, 999, 0)
	})
	defer func() {
		if recover() == nil {
			t.Error("RDMA to unknown rkey did not panic")
		}
	}()
	_ = nw.e.Run()
}

func TestRDMAOutOfRegionPanics(t *testing.T) {
	nw := newNet(2)
	reg := nw.hcas[1].Register(nw.host[1].Base(), 128)
	nw.e.Spawn("sender", func(p *sim.Proc) {
		nw.hcas[0].RDMAWrite(1, nw.host[0].Base(), 100, reg.Rkey, 64)
	})
	defer func() {
		if recover() == nil {
			t.Error("RDMA past region end did not panic")
		}
	}()
	_ = nw.e.Run()
}

func TestDeregister(t *testing.T) {
	nw := newNet(1)
	reg := nw.hcas[0].Register(nw.host[0].Base(), 128)
	nw.hcas[0].Deregister(reg)
	defer func() {
		if recover() == nil {
			t.Error("double deregister did not panic")
		}
	}()
	nw.hcas[0].Deregister(reg)
}

func TestLoopbackPanics(t *testing.T) {
	nw := newNet(1)
	defer func() {
		if recover() == nil {
			t.Error("loopback send did not panic")
		}
	}()
	postSend(nw.hcas[0], 0, nil, nil)
}

func TestDuplicateHCAPanics(t *testing.T) {
	nw := newNet(1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate HCA did not panic")
		}
	}()
	nw.f.NewHCA(0)
}

func TestMissingHandlerPanics(t *testing.T) {
	nw := newNet(2) // no handler installed on node 1
	nw.e.Spawn("sender", func(p *sim.Proc) {
		postSend(nw.hcas[0], 1, "x", nil)
	})
	defer func() {
		if recover() == nil {
			t.Error("delivery without handler did not panic")
		}
	}()
	_ = nw.e.Run()
}

// Property: messages between one ordered pair are delivered in post order
// regardless of size mix.
func TestPropPairwiseOrdering(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 40 {
			return true
		}
		nw := newNet(2)
		var got []int
		nw.hcas[1].SetHandler(func(from int, msg Message, payload []byte) {
			got = append(got, msg.(int))
		})
		nw.e.Spawn("sender", func(p *sim.Proc) {
			for i, s := range sizes {
				postSend(nw.hcas[0], 1, i, make([]byte, int(s)))
			}
		})
		if err := nw.e.Run(); err != nil {
			return false
		}
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: any sequence of RDMA writes to disjoint offsets deposits
// exactly the posted bytes (no loss, no bleed between chunks) — the
// chunked-pipeline correctness base case.
func TestPropChunkedRDMAIntegrity(t *testing.T) {
	f := func(chunksRaw []uint8) bool {
		nchunks := 1 + len(chunksRaw)%16
		const chunk = 512
		nw := newNet(2)
		nw.hcas[1].SetHandler(func(int, Message, []byte) {})
		dst := nw.host[1].Base()
		reg := nw.hcas[1].Register(dst, nchunks*chunk)
		src := nw.host[0].Base()
		mem.Fill(src, nchunks*chunk, func(i int) byte { return byte(i*37 + 5) })
		nw.e.Spawn("sender", func(p *sim.Proc) {
			// Post chunks in reverse order; each targets its own slot.
			for i := nchunks - 1; i >= 0; i-- {
				nw.hcas[0].RDMAWrite(1, src.Add(i*chunk), chunk, reg.Rkey, i*chunk)
			}
		})
		if err := nw.e.Run(); err != nil {
			return false
		}
		return mem.Equal(dst, src, nchunks*chunk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWireTimeScalesWithSize(t *testing.T) {
	nw := newNet(2)
	nw.hcas[1].SetHandler(func(int, Message, []byte) {})
	var small, large sim.Time
	nw.e.Spawn("s", func(p *sim.Proc) {
		t0 := p.Now()
		p.Wait(postSend(nw.hcas[0], 1, nil, make([]byte, 64)))
		small = p.Now() - t0
		t0 = p.Now()
		p.Wait(postSend(nw.hcas[0], 1, nil, make([]byte, 1<<20)))
		large = p.Now() - t0
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if large < 100*small {
		t.Errorf("1MB local completion %v not ≫ 64B %v", large, small)
	}
}

func TestRDMAReadFetchesBytes(t *testing.T) {
	nw := newNet(2)
	src := nw.host[1].Base().Add(64)
	mem.Fill(src, 4096, func(i int) byte { return byte(i*5 + 1) })
	reg := nw.hcas[1].Register(src, 4096)
	dst := nw.host[0].Base()
	nw.e.Spawn("reader", func(p *sim.Proc) {
		ev := new(sim.Event)
		nw.hcas[0].RDMAReadInto(ev, dst, 1, reg.Rkey, 128, 1024)
		p.Wait(ev)
		if !mem.Equal(dst, src.Add(128), 1024) {
			t.Error("read returned wrong bytes")
		}
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.hcas[0].Stats().RDMAReads != 1 {
		t.Error("read not counted")
	}
}

func TestRDMAReadCostsTwoTrips(t *testing.T) {
	// A read pays request latency + response stream; it must take longer
	// than a same-size write's local completion but in the same ballpark
	// as the write's delivery.
	nw := newNet(2)
	reg := nw.hcas[1].Register(nw.host[1].Base(), 1<<20)
	var readTime sim.Time
	nw.e.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		done := new(sim.Event)
		nw.hcas[0].RDMAReadInto(done, nw.host[0].Base(), 1, reg.Rkey, 0, 1<<20)
		p.Wait(done)
		readTime = p.Now() - t0
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	wire := sim.DurationOf(1<<20, nw.f.Model().Bandwidth)
	if readTime < wire || readTime > 2*wire {
		t.Errorf("read time %v outside [1,2]x wire %v", readTime, wire)
	}
}

func TestRDMAReadUnknownRkeyPanics(t *testing.T) {
	nw := newNet(2)
	nw.e.Spawn("reader", func(p *sim.Proc) {
		nw.hcas[0].RDMAReadInto(new(sim.Event), nw.host[0].Base(), 1, 777, 0, 16)
	})
	defer func() {
		if recover() == nil {
			t.Error("read of unknown rkey did not panic")
		}
	}()
	_ = nw.e.Run()
}

// TestRegisterUnmappedDeviceRangePanics: with GPUDirect, registration
// validates the range against device allocations, so a range past the
// end of an allocation or in unallocated memory panics, naming the range.
func TestRegisterUnmappedDeviceRangePanics(t *testing.T) {
	f := NewFabric(sim.New(), Model{AllowDeviceRegistration: true})
	hca := f.NewHCA(0)
	dev := mem.Reserve(mem.Device, "gpu0", 0, 1<<20)
	buf := dev.Map(4096, 256)
	hca.Register(buf, 256)
	for _, c := range []struct {
		what string
		p    mem.Ptr
		n    int
	}{
		{"range past the allocation", buf, 257},
		{"unallocated range", dev.Base(), 64},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.p.String()) {
					t.Errorf("%s: panic %q does not name %v", c.what, msg, c.p)
				}
			}()
			hca.Register(c.p, c.n)
		}()
	}
}

// TestRDMASnapshotsRecycled: each write's payload snapshot returns to the
// recycler once deposited, so back-to-back writes of one length reuse one
// snapshot, and every write still lands its own bytes. The recycler is
// shared by the whole process, so the test counts what changed during
// the run.
func TestRDMASnapshotsRecycled(t *testing.T) {
	nw := newNet(2)
	dst := nw.host[1].Base()
	reg := nw.hcas[1].Register(dst, 4096)
	src := nw.host[0].Base()
	nw.e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			mem.Fill(src, 512, func(j int) byte { return byte(i*7 + j) })
			p.Wait(nw.hcas[0].RDMAWrite(1, src, 512, reg.Rkey, i*1024))
			p.Sleep(sim.Microsecond * 10) // past delivery
		}
	})
	before := mem.Recycled()
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	after := mem.Recycled()
	for i := 0; i < 3; i++ {
		got := dst.Add(i * 1024).Bytes(512)
		for j, b := range got {
			if b != byte(i*7+j) {
				t.Fatalf("write %d byte %d = %d, want %d", i, j, b, byte(i*7+j))
			}
		}
	}
	takes, fresh, puts := after.Takes-before.Takes, after.Fresh-before.Fresh, after.Puts-before.Puts
	if takes != 3 || puts != 3 || fresh > 1 {
		t.Errorf("three sequential writes took %d snapshots (%d fresh) and returned %d; want 3, at most 1 and 3",
			takes, fresh, puts)
	}
}

// TestRDMAWriteSnapshotSurvivesLocalCompletion pins why an RDMA write
// snapshots its source at post time. The local-completion event fires
// when the last byte leaves the sender, and the staged pipeline hands the
// source vbuf back to its pool right there; the deposit lands a link
// latency later. A source overwritten at local completion must not
// reach the remote region.
func TestRDMAWriteSnapshotSurvivesLocalCompletion(t *testing.T) {
	const n = 4096
	nw := newNet(2)
	dst := nw.host[1].Base()
	reg := nw.hcas[1].Register(dst, n)
	src := nw.host[0].Base()
	posted := func(j int) byte { return byte(j*5 + 3) }
	mem.Fill(src, n, posted)
	pending := false
	nw.e.Spawn("sender", func(p *sim.Proc) {
		ev := nw.hcas[0].RDMAWrite(1, src, n, reg.Rkey, 0)
		ev.OnTrigger(func() {
			pending = dst.Bytes(1)[0] != posted(0)
			mem.Fill(src, n, func(int) byte { return 0xee })
		})
		p.Wait(ev)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !pending {
		t.Error("the write was deposited by local completion: the source hold would cover it")
	}
	for j, b := range dst.Bytes(n) {
		if b != posted(j) {
			t.Fatalf("remote byte %d = %#x, want the posted %#x", j, b, posted(j))
		}
	}
}

// TestPostSendSnapshotsNotAliased: the recycler never hands one snapshot
// to two live messages. Two equal-length sends are posted back to back
// once message 0's snapshot is parked, the sender rewrites both sources
// right after posting, and each delivery still carries its own post-time
// bytes. The recycler's counters must show the reuse happened and every
// snapshot came back.
func TestPostSendSnapshotsNotAliased(t *testing.T) {
	nw := newNet(2)
	got := map[int][]byte{}
	nw.hcas[1].SetHandler(func(from int, msg Message, payload []byte) {
		got[msg.(int)] = append([]byte(nil), payload...)
		mem.PutBytes(payload) // the handler owns the snapshot
	})
	a, b := make([]byte, 256), make([]byte, 256)
	fill := func(buf []byte, seed byte) {
		for i := range buf {
			buf[i] = byte(i) + seed
		}
	}
	nw.e.Spawn("sender", func(p *sim.Proc) {
		fill(a, 0)
		p.Wait(postSend(nw.hcas[0], 1, 0, a))
		p.Sleep(10 * sim.Microsecond) // delivered: its snapshot is parked
		fill(a, 1)
		fill(b, 2)
		postSend(nw.hcas[0], 1, 1, a)
		postSend(nw.hcas[0], 1, 2, b)
		fill(a, 3)
		fill(b, 4)
	})
	before := mem.Recycled()
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	after := mem.Recycled()
	if r, puts := after.Reused()-before.Reused(), after.Puts-before.Puts; r == 0 || puts != 3 {
		t.Errorf("run reused %d snapshots and returned %d, want at least 1 and 3", r, puts)
	}
	for msg := 0; msg < 3; msg++ {
		want := make([]byte, 256)
		fill(want, byte(msg))
		if string(got[msg]) != string(want) {
			t.Errorf("message %d delivered %v..., want %v...", msg, got[msg][:4], want[:4])
		}
	}
}

// TestRDMAWriteNoBytesKeepsTheWritesSlots runs the same write, a FIN-like
// send behind it and a second write, once moving bytes and once with no
// bytes: the two runs fire the same events at the same instants and
// dispatch the same items, the stats count the bytes as sent, and the
// no-bytes run leaves the target untouched and copies nothing.
func TestRDMAWriteNoBytesKeepsTheWritesSlots(t *testing.T) {
	const n = 4096
	run := func(noBytes bool) (log []string, events uint64, target []byte, st Stats, copied int64) {
		nw := newNet(2)
		var bc mem.ByteCounters
		nw.f.SetByteCounters(&bc)
		nw.hcas[1].SetHandler(func(int, Message, []byte) {})
		dst := nw.host[1].Base()
		reg := nw.hcas[1].Register(dst, 2*n)
		src := nw.host[0].Base()
		mem.Fill(src, 2*n, func(i int) byte { return byte(i*7 + 1) })
		nw.e.SetTracer(func(at sim.Time, msg string) {
			if strings.HasPrefix(msg, "event ") {
				log = append(log, fmt.Sprintf("%v %s", at, msg))
			}
		})
		nw.e.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				done := new(sim.Event)
				if noBytes {
					nw.hcas[0].RDMAWriteNoBytesRailInto(done, 1, n, reg.Rkey, i*n, 0, obs.Span{}, i)
				} else {
					nw.hcas[0].RDMAWriteRailInto(done, 1, src.Add(i*n), n, reg.Rkey, i*n, 0, obs.Span{}, i)
				}
				postSend(nw.hcas[0], 1, i, nil)
				p.Wait(done)
			}
		})
		if err := nw.e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, nw.e.Events(), dst.Bytes(2 * n), nw.hcas[0].Stats(), bc.Copied
	}
	wantLog, wantEvents, moved, wantStats, wantCopied := run(false)
	log, events, target, st, copied := run(true)
	if strings.Join(log, "\n") != strings.Join(wantLog, "\n") || events != wantEvents {
		t.Errorf("no-bytes writes fired %d events over %d items, byte-moving ones %d over %d", len(log), events, len(wantLog), wantEvents)
	}
	if st != wantStats {
		t.Errorf("stats %+v, byte-moving %+v", st, wantStats)
	}
	if moved[0] == 0 || wantCopied != 4*n {
		t.Errorf("byte-moving writes deposited %#x first and copied %d B, want the data and %d B", moved[0], wantCopied, 4*n)
	}
	for i, b := range target {
		if b != 0 {
			t.Fatalf("no-bytes write changed target byte %d to %#x", i, b)
		}
	}
	if copied != 0 {
		t.Errorf("no-bytes writes copied %d B", copied)
	}
}

// TestRDMAWriteNoBytesToScatterRegionPanics: a scatter region has to see
// the bytes it scatters.
func TestRDMAWriteNoBytesToScatterRegionPanics(t *testing.T) {
	nw := newNet(2)
	reg := nw.hcas[1].RegisterScatterRegion(SGDesc{Buf: nw.host[1].Base(), N: 64}, 64, nil)
	nw.hcas[0].RDMAWriteNoBytesRailInto(new(sim.Event), 1, 64, reg.Rkey, 0, 0, obs.Span{}, 0)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "no bytes to scatter region") {
			t.Errorf("panic %q, want the scatter region refusing a write of no bytes", msg)
		}
	}()
	nw.e.Run()
}
