package ib

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// refTransmit is the reference a transfer record is checked against: the
// transfer as a process that blocks in Acquire and Sleep. The record must
// produce the same simulation — the same event firings, trace records and
// dispatched items.
func (h *HCA) refTransmit(dst, nbytes int, kind string, deliver func(rx *HCA, wire obs.Task)) *sim.Event {
	rx := h.f.hcas[dst]
	txRail, rxRail := h.railAt(0), rx.railAt(0)
	localDone := h.f.e.NewEvent(h.txDone)
	txRail.queued++
	h.f.hub.Counter(txRail.qCtr, float64(txRail.queued))
	h.f.e.Spawn("xfer", func(p *sim.Proc) {
		txRail.sendLink.Acquire(p)
		tx := h.f.hub.Start(kind, txRail.txTrack, -1, nbytes)
		p.Sleep(h.wireTime(nbytes))
		tx.End()
		txRail.sendLink.Release()
		txRail.queued--
		h.f.hub.Counter(txRail.qCtr, float64(txRail.queued))
		localDone.Trigger()
		h.stats.BytesTx += int64(nbytes)
		h.f.hub.Counter(h.txCtr, float64(h.stats.BytesTx))
		p.Sleep(h.f.model.Latency)
		rxRail.recvLink.Acquire(p)
		in := h.f.hub.Start(kind, rxRail.rxTrack, -1, nbytes)
		in.DependsOnTask(tx.Task(), obs.DepWire)
		p.Sleep(sim.DurationOf(nbytes, h.f.model.Bandwidth) / 8)
		in.End()
		rxRail.recvLink.Release()
		rx.stats.BytesRx += int64(nbytes)
		h.f.hub.Counter(rx.rxCtr, float64(rx.stats.BytesRx))
		deliver(rx, in.Task())
	})
	return localDone
}

// post issues one fabric operation on rail 0, through the transfer
// record or, with ref set, through refTransmit.
func post(h *HCA, ref bool, dst int, msg Message, payload []byte, write bool, src mem.Ptr, rkey uint32, roff int) *sim.Event {
	if !ref {
		if write {
			return h.RDMAWriteRail(dst, src, len(payload), rkey, roff, 0)
		}
		return postSend(h, dst, msg, payload)
	}
	if write {
		n := len(payload)
		snap := mem.GetBytes(n)
		h.f.e.CallAt(h.f.e.Now(), func() { copy(snap, src.Bytes(n)) })
		h.stats.RDMAWrites++
		return h.refTransmit(dst, n, obs.KindRDMA, func(rx *HCA, wire obs.Task) {
			rx.deposit(rkey, roff, n, snap, 0, wire)
		})
	}
	snap := mem.GetBytes(len(payload))
	copy(snap, payload)
	h.stats.SendsPosted++
	return h.refTransmit(dst, headerBytes+len(snap), obs.KindSend, func(rx *HCA, _ obs.Task) {
		rx.handler(h.node, msg, snap)
	})
}

// fabricLog records, in simulation order, every trace record, event
// firing and delivery of a run.
type fabricLog struct {
	e     *sim.Engine
	lines []string
}

func (l *fabricLog) add(format string, args ...interface{}) {
	l.lines = append(l.lines, fmt.Sprintf("%v ", l.e.Now())+fmt.Sprintf(format, args...))
}

func (l *fabricLog) TaskStart(t obs.Task) {
	l.add("start %d %s %s %d %d", t.ID, t.Kind, t.Where, t.Chunk, t.Bytes)
}
func (l *fabricLog) TaskStep(t obs.Task, w string) { l.add("step %d %s", t.ID, w) }
func (l *fabricLog) TaskEnd(t obs.Task)            { l.add("end %d", t.ID) }
func (l *fabricLog) TaskDepends(t obs.Task, on uint64, label string) {
	l.add("dep %d %d %s", t.ID, on, label)
}
func (l *fabricLog) CounterSample(name string, at sim.Time, v float64) {
	l.add("counter %s %v %g", name, at, v)
}

// trace logs the event firings among the engine tracer's lines.
func (l *fabricLog) trace(_ sim.Time, msg string) {
	if name, ok := strings.CutPrefix(msg, "event "); ok {
		if name, ok := strings.CutSuffix(name, ": fired"); ok {
			l.add("fired %s", name)
		}
	}
}

// fabricOp is one operation of a random fabric program: a send or an
// RDMA write of n bytes from node src to node 1, issued by src's process
// after gap, or from engine context at time at.
type fabricOp struct {
	src   int
	write bool
	n     int
	proc  bool
	gap   sim.Time
	at    sim.Time
}

// runFabric runs ops on three HCAs whose traffic contends for node 1's
// rail; node 1 answers every third send with a header-only reply from its
// handler. It returns the log, the dispatched item count and node 1's
// landing area.
func runFabric(t *testing.T, ops []fabricOp, ref bool) ([]string, uint64, []byte) {
	e := sim.New()
	defer e.Shutdown()
	log := &fabricLog{e: e}
	e.SetTracer(log.trace)
	f := NewFabric(e, Model{})
	f.SetHub(obs.NewHub(e, log))
	const slot = 8 << 10
	var hcas []*HCA
	var host []mem.Ptr
	for i := 0; i < 3; i++ {
		hcas = append(hcas, f.NewHCA(i))
		host = append(host, mem.NewHostSpace(fmt.Sprintf("host%d", i), len(ops)*slot).Base())
		i := i
		mem.Fill(host[i], len(ops)*slot, func(j int) byte { return byte(j*3 + i) })
	}
	region := hcas[1].Register(host[1], len(ops)*slot)
	for i, h := range hcas {
		i, h := i, h
		h.SetHandler(func(from int, msg Message, payload []byte) {
			sum := 0
			for _, b := range payload {
				sum += int(b)
			}
			log.add("deliver %d->%d %v %d bytes sum %d", from, i, msg, len(payload), sum)
			if k, ok := msg.(int); ok && i == 1 && k%3 == 0 {
				post(h, ref, from, -k, nil, false, mem.Ptr{}, 0, 0)
			}
		})
	}
	issue := func(k int) {
		op := ops[k]
		payload := host[op.src].Bytes(op.n)
		post(hcas[op.src], ref, 1, k, payload, op.write, host[op.src], region.Rkey, k*slot)
	}
	for _, src := range []int{0, 2} {
		src := src
		e.Spawn(fmt.Sprintf("node%d", src), func(p *sim.Proc) {
			for k, op := range ops {
				if op.proc && op.src == src {
					p.Sleep(op.gap)
					issue(k)
				}
			}
		})
	}
	for k, op := range ops {
		if !op.proc {
			k := k
			e.CallAt(op.at, func() { issue(k) })
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log.lines, e.Events(), append([]byte(nil), host[1].Bytes(len(ops)*slot)...)
}

// TestPropTransferMatchesReference runs random mixes of sends and RDMA
// writes that contend for one rail — two senders' send links and the
// receiver's receive link, replies posted from inside delivery — through
// transfer records and through reference transfer processes, and
// requires identical trace records, event firings, deliveries, memory
// and dispatched item counts.
func TestPropTransferMatchesReference(t *testing.T) {
	grants := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]fabricOp, 4+rng.Intn(20))
		for k := range ops {
			ops[k] = fabricOp{
				src:   2 * rng.Intn(2),
				write: rng.Intn(2) == 0,
				n:     rng.Intn(8 << 10),
				proc:  rng.Intn(2) == 0,
				gap:   sim.Time(rng.Intn(3000)),
				at:    sim.Time(rng.Intn(20000)),
			}
		}
		got, gotEvents, gotMem := runFabric(t, ops, false)
		want, wantEvents, wantMem := runFabric(t, ops, true)
		for _, l := range got {
			if strings.HasSuffix(l, ".grant") {
				grants++
			}
		}
		if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Errorf("seed %d: line %d: record %q, reference %q", seed, i, got[i], want[min(i, len(want)-1)])
					break
				}
			}
			t.Errorf("seed %d: %d lines, reference %d", seed, len(got), len(want))
			return false
		}
		if gotEvents != wantEvents {
			t.Errorf("seed %d: %d events, reference %d", seed, gotEvents, wantEvents)
			return false
		}
		if string(gotMem) != string(wantMem) {
			t.Errorf("seed %d: landed bytes differ from the reference", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if grants == 0 {
		t.Error("no link was ever handed over: the programs do not contend")
	}
	t.Logf("%d link grants", grants)
}
