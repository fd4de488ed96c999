package core

import (
	"fmt"
	"strconv"

	"mv2sim/internal/datatype"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// ---------------------------------------------------------------------------
// Rendezvous: one sender and one receiver, driven by the plan's routes.
//
// Like eager staging (eager.go), each side of a transfer runs as
// continuations on a record from a per-node pool, an rsend or an rrecv,
// whose steps are the stretches between the blocking calls of a pipeline
// process, bound once as method values. The AsyncIssue sleep before every
// CUDA launch becomes CallAt(now+AsyncIssue, step); p.Wait(ev), and each
// Wait of a WaitAll, becomes ev.Then(step); Pool.GetRail becomes
// Pool.GetRailThen; the protocol waits become mpi's AwaitCTSThen,
// AwaitSlotThen and AwaitFinThen. Each step takes the (time, seq) slot the
// process's wake-up took (see package sim), so the event order, Events()
// and every trace byte are those of the process; its coroutine switches
// and allocations go.
//
// Per-chunk and per-stage state lives in sub-records a record keeps from
// transfer to transfer. Each holds its events by value — stream ops go in
// with cuda's *Into forms, RDMA writes with mpi's — and binds its
// completion callbacks once. A chunk's callbacks run inline in its
// event's Trigger, as the process pipeline's OnTrigger closures did.

// rstage is one issued pack or unpack of a transfer: its stream op's
// completion, its span, and its kernel operands when it runs as a kernel.
type rstage struct {
	ev       sim.Event
	sp       obs.Span
	off, n   int // packed byte range
	kernel   bool
	kd       datatype.KernelDesc
	dst, src mem.Ptr

	endFn, packFn, unpackFn func()
}

func (s *rstage) end()        { s.sp.End() }
func (s *rstage) packBody()   { s.kd.Pack(s.dst, s.src) }
func (s *rstage) unpackBody() { s.kd.Unpack(s.dst, s.src) }

// stageAt returns stage i of *stages, growing the list with new stages.
func stageAt(stages *[]*rstage, i int) *rstage {
	for len(*stages) <= i {
		s := &rstage{}
		s.endFn, s.packFn, s.unpackFn = s.end, s.packBody, s.unpackBody
		*stages = append(*stages, s)
	}
	return (*stages)[i]
}

// prepStage readies s as the pack (or unpack) of packed range [off, off+n)
// under span sp. A kernel is counted in kernOps here, before its launch's
// issue time, where the process pipeline counted it.
func (n1 *NodeGPU) prepStage(s *rstage, pl *plan, pack bool, sp obs.Span, off, n int) {
	s.sp, s.off, s.n = sp, off, n
	if pack {
		s.kernel = !pl.packByCopy(off)
	} else {
		s.kernel = !pl.unpackByCopy(off)
	}
	if s.kernel {
		s.kd = pl.cp.Kernel(off, n)
		n1.kernOps++
	}
}

// issueStage enqueues a prepared stage, chunk i of its kind: a row-aligned
// 2D copy between the user buffer and tbuf on the copy engine, or a
// kernel walking the cached chunk plan's segments.
func (n1 *NodeGPU) issueStage(s *rstage, pl *plan, req *mpi.Request, tbuf mem.Ptr, pack bool, i int) {
	user, packed := req.Buf(), tbuf.Add(s.off)
	st, what := n1.unpackStream, "unpack"
	if pack {
		st, what = n1.packStream, "pack"
	}
	switch {
	case !s.kernel:
		uo, w, rows := pl.rows2D(what, s.off, s.n)
		if pack {
			n1.Ctx.Memcpy2DAsyncInto(&s.ev, packed, w, user.Add(uo), pl.shape.Pitch, w, rows, st, s.sp, i)
		} else {
			n1.Ctx.Memcpy2DAsyncInto(&s.ev, user.Add(uo), pl.shape.Pitch, packed, w, w, rows, st, s.sp, i)
		}
	default:
		body := s.unpackFn
		s.dst, s.src = user, packed
		if pack {
			body = s.packFn
			s.dst, s.src = packed, user
		}
		n1.Ctx.LaunchKernelInto(&s.ev, st, s.sp, i, s.kd.Bytes(), n1.Ctx.Model().PackKernelRate(s.kd.Bytes(), s.kd.Segments()), body)
		s.ev.OnTrigger(n1.kernDoneFn)
	}
	if s.sp.Active() {
		s.ev.OnTrigger(s.endFn)
	}
}

// rndv holds what both sides of a transfer share.
type rndv struct {
	n1   *NodeGPU
	e    *sim.Engine
	h    *obs.Hub
	req  *mpi.Request
	pl   plan
	tbuf mem.Ptr // packed bytes on the device, or the user buffer when contiguous

	// packed is the transfer's packed buffer (see plan): the sender's
	// offer, which backs its tbuf, and the receiver's, once it holds it.
	// nil when the routes move the bytes hop by hop.
	packed []byte

	total, chunkBytes int
	wait              int // the next event of a final WaitAll
}

func (x *rndv) init(t *Transport, n1 *NodeGPU, req *mpi.Request) {
	x.n1, x.e, x.h, x.req = n1, req.Rank().World().Engine(), t.hub, req
	x.pl = t.planFor(req)
}

// after schedules step d from now: the continuation form of p.Sleep(d).
func (x *rndv) after(d sim.Time, step func()) { x.e.CallAt(x.e.Now()+d, step) }

// issueTime is the host cost of an async CUDA launch (cuda's issue).
func (x *rndv) issueTime() sim.Time { return x.n1.Ctx.Model().AsyncIssue }

// setTbuf allocates the transfer's device tbuf when alloc is set, backed
// by the packed buffer if the side has one, and otherwise stages the
// contiguous bytes in place. A step that panics makes Run re-raise the
// panic to its caller, as a process body's panic does.
func (x *rndv) setTbuf(alloc bool) {
	if !alloc {
		x.tbuf = x.req.Buf().Add(x.pl.shape.Off)
		return
	}
	var p mem.Ptr
	var err error
	if x.packed != nil {
		p, err = x.n1.Ctx.MallocWith(x.packed)
	} else {
		p, err = x.n1.Ctx.Malloc(x.pl.size)
	}
	if err != nil {
		panic(err)
	}
	x.tbuf = p
}

// chunkLen is the length of chunk c.
func (x *rndv) chunkLen(c int) int { return min(x.chunkBytes, x.pl.size-c*x.chunkBytes) }

// ---------------------------------------------------------------------------
// Sender

// rsend is one rendezvous send in flight: stage 1 packs issued up front,
// then per chunk its slot, its pack, a vbuf, the D2H and the wire post,
// as pl.send routes them.
type rsend struct {
	rndv
	step, off int  // stage 1: pack size and the next packed offset to pack
	npack     int  // packs issued
	c         int  // the chunk being placed
	held      bool // the receiver holds the packed buffer: stages 2 and 3 move no bytes
	sendKeep
	next *rsend
}

// sendKeep is what an rsend keeps from transfer to transfer: its
// sub-records, its event names and its steps.
type sendKeep struct {
	packs  []*rstage
	chunks []*schunk

	// The chunks' sent events are named sentPrefix, the chunk index and
	// sentSuffix; the prefix is kept for the route kind it was built for.
	sentKind, sentPrefix, sentSuffix string

	startFn, issuePackFn, ctsFn, slotFn, gotPackFn, d2hFn, waitFn func()
	gotVbufFn                                                     func(*hostmem.Vbuf)
}

// schunk is one chunk of a send.
type schunk struct {
	x                   *rsend
	c, off, n, rail     int
	slot                mpi.Slot
	vbuf                *hostmem.Vbuf
	ps                  *rstage // the pack the chunk waits for; nil without one
	pack, d2hSp, rdmaSp obs.Span
	d2h, wire, sent     sim.Event

	d2hDoneFn, wireDoneFn func()
}

// StartRendezvousSend sends the RTS immediately and starts packing before
// the CTS arrives, overlapping the handshake with datatype processing.
func (t *Transport) StartRendezvousSend(req *mpi.Request) {
	n1 := t.Node(req.Rank())
	x := n1.sendFree
	if x == nil {
		x = &rsend{}
		x.startFn, x.issuePackFn, x.ctsFn = x.start, x.issuePack, x.cts
		x.slotFn, x.gotPackFn, x.d2hFn, x.waitFn = x.gotSlot, x.gotPack, x.d2h, x.waitSent
		x.gotVbufFn = x.gotVbuf
	} else {
		n1.sendFree = x.next
		x.next = nil
	}
	x.init(t, n1, req)
	if x.pl.send.offersPacked() {
		x.packed = mem.GetBytes(x.pl.size)
	}
	req.Rank().SendRTS(req, x.packed)
	x.e.CallAt(x.e.Now(), x.startFn)
}

func (x *rsend) start() {
	pl := &x.pl
	x.setTbuf(pl.send.pack)
	if kind, suffix := pl.send.sentName(); kind != x.sentKind {
		x.sentKind, x.sentSuffix = kind, suffix
		x.sentPrefix = "rank" + strconv.Itoa(x.req.Rank().Rank()) + "." + kind
	}
	// Stage 1: issue all device-side packs up front (row-aligned groups
	// close to the block size for the copy engine, chunk-aligned blocks
	// for the pack kernel), building a contiguous packed tbuf.
	blockSize := x.req.Rank().World().Config().BlockSize
	x.step = pl.size
	if pl.uniform && pl.packChunkEngine() != engineKernel {
		rows := max(1, blockSize/pl.shape.Width)
		x.step = rows * pl.shape.Width
	} else if pl.size > blockSize {
		x.step = blockSize
	}
	x.pack()
}

// pack opens the next stage-1 pack, or waits for the CTS once all are
// issued: by then the RTS is long gone.
func (x *rsend) pack() {
	if !x.pl.send.pack || x.off >= x.pl.size {
		x.req.AwaitCTSThen(x.ctsFn)
		return
	}
	n := min(x.step, x.pl.size-x.off)
	sp := x.h.StartChild(x.req.ObsSpan(), obs.KindPack, x.n1.tracks.pack, x.npack, n)
	x.n1.prepStage(stageAt(&x.packs, x.npack), &x.pl, true, sp, x.off, n)
	x.after(x.issueTime(), x.issuePackFn)
}

func (x *rsend) issuePack() {
	s := x.packs[x.npack]
	x.n1.issueStage(s, &x.pl, x.req, x.tbuf, true, x.npack)
	x.npack++
	x.off = s.off + s.n
	x.pack()
}

// cts checks the receiver's chunk geometry and starts the chunk loop.
func (x *rsend) cts() {
	blockSize := x.req.Rank().World().Config().BlockSize
	total, chunkBytes := x.req.CTSGeometry()
	if want := (x.pl.size + blockSize - 1) / blockSize; chunkBytes != blockSize || total != want {
		panic(fmt.Sprintf("core: receiver announced %d chunks of %d bytes, want %d of %d", total, chunkBytes, want, blockSize))
	}
	x.total, x.chunkBytes = total, chunkBytes
	if x.held = x.req.PeerHoldsPacked(); x.held && x.packed == nil {
		panic("core: receiver holds a packed buffer the sender never offered")
	}
	for len(x.chunks) < total {
		ch := &schunk{x: x}
		ch.d2hDoneFn, ch.wireDoneFn = ch.d2hDone, ch.wireDone
		x.chunks = append(x.chunks, ch)
	}
	x.nextChunk()
}

// nextChunk places chunk c: wait for its slot and its pack, stage it
// into a vbuf (D2H) if the route stages, put it on the wire (+ FIN), and
// recycle the vbuf at local completion. Chunk i's RDMA overlaps chunk
// i+1's D2H and later packs. Chunks stripe round-robin: chunk c stages on
// D2H stream c%rails and flies on HCA rail c%rails, so with R rails up to
// R chunks occupy PCIe queues and wires concurrently. Once every chunk is
// placed, wait for their sends in order.
func (x *rsend) nextChunk() {
	if x.c == x.total {
		x.waitSent()
		return
	}
	x.req.AwaitSlotThen(x.c, x.slotFn)
}

func (x *rsend) gotSlot() {
	ch := x.chunks[x.c]
	ch.c, ch.slot = x.c, x.req.Slot(x.c)
	ch.rail, ch.off, ch.n = x.c%x.n1.rails, x.c*x.chunkBytes, x.chunkLen(x.c)
	ch.ps, ch.pack = nil, obs.Span{}
	if !x.pl.send.pack {
		x.gotPack()
		return
	}
	ps := x.packs[x.npack-1]
	for _, s := range x.packs[:x.npack] {
		if s.off+s.n >= ch.off+ch.n {
			ps = s
			break
		}
	}
	ch.ps, ch.pack = ps, ps.sp
	ps.ev.Then(x.gotPackFn)
}

func (x *rsend) gotPack() {
	if x.pl.send.d2h != copyNone {
		x.n1.Pool.GetRailThen(x.chunks[x.c].rail, x.gotVbufFn)
		return
	}
	x.gotVbuf(nil)
}

func (x *rsend) gotVbuf(v *hostmem.Vbuf) {
	ch := x.chunks[x.c]
	ch.vbuf = v
	ch.sent.ResetNumberedSuffix(x.e, x.sentPrefix, ch.c, x.sentSuffix)
	if x.pl.send.d2h == copyNone {
		ch.rdmaSp = x.h.StartChild(x.req.ObsSpan(), obs.KindRDMA, x.n1.tracks.rdma[ch.rail], ch.c, ch.n)
		ch.rdmaSp.DependsOn(ch.pack, obs.DepPack)
		ch.post()
		x.c++
		x.nextChunk()
		return
	}
	ch.d2hSp = x.h.StartChild(x.req.ObsSpan(), obs.KindD2H, x.n1.tracks.d2h[ch.rail], ch.c, ch.n)
	ch.d2hSp.DependsOn(ch.pack, obs.DepPack)
	x.after(x.issueTime(), x.d2hFn)
}

func (x *rsend) d2h() {
	n1, ch := x.n1, x.chunks[x.c]
	st := n1.d2hStreams[ch.rail]
	switch {
	case x.held:
		n1.Ctx.MemcpyAsyncNoBytesInto(&ch.d2h, ch.vbuf.Ptr, x.tbuf.Add(ch.off), ch.n, st, ch.d2hSp, ch.c)
	case x.pl.send.d2h == copy1D:
		n1.Ctx.MemcpyAsyncInto(&ch.d2h, ch.vbuf.Ptr, x.tbuf.Add(ch.off), ch.n, st, ch.d2hSp, ch.c)
	default:
		uo, w, rows := x.pl.rows2D("d2h", ch.off, ch.n)
		n1.Ctx.Memcpy2DAsyncInto(&ch.d2h, ch.vbuf.Ptr, w, x.req.Buf().Add(uo), x.pl.shape.Pitch, w, rows, st, ch.d2hSp, ch.c)
	}
	ch.d2h.OnTrigger(ch.d2hDoneFn)
	x.c++
	x.nextChunk()
}

// d2hDone puts a staged chunk on the wire. A contiguous chunk enters a
// held packed buffer here, in the slot its bytes reach the vbuf in when
// the hops move them.
func (ch *schunk) d2hDone() {
	x := ch.x
	ch.d2hSp.End()
	if x.held && !x.pl.send.pack {
		mem.CopyOut(x.packed[ch.off:ch.off+ch.n], x.tbuf.Add(ch.off))
	}
	ch.rdmaSp = x.h.StartChild(x.req.ObsSpan(), obs.KindRDMA, x.n1.tracks.rdma[ch.rail], ch.c, ch.n)
	ch.rdmaSp.DependsOn(ch.d2hSp, obs.DepStage)
	ch.post()
}

// post puts the chunk's stage 3 under its rdma span: an RDMA write, or a
// NIC gather, of the route's source, or a write of no bytes when the
// receiver holds the packed buffer. A packed chunk's pack must have
// completed: with the packed buffer held, the receiver's bytes would
// still come out right if it had not.
func (ch *schunk) post() {
	x := ch.x
	if ch.ps != nil && !ch.ps.ev.Fired() {
		panic(fmt.Sprintf("core: chunk %d posted before its pack completed", ch.c))
	}
	r, wire := x.req.Rank(), x.pl.send.wire
	switch {
	case x.held:
		r.RDMAChunkNoBytesRailInto(&ch.wire, x.req, ch.slot, ch.n, ch.rail, ch.rdmaSp)
	case wire == wireTbuf:
		r.RDMAChunkRailInto(&ch.wire, x.req, ch.slot, x.tbuf.Add(ch.off), ch.n, ch.rail, ch.rdmaSp)
	case wire == wireGather:
		r.RDMANicChunkRailInto(&ch.wire, x.req, ch.slot, x.pl.sgRange(x.req, ch.off, ch.n), ch.rail, ch.rdmaSp)
	case wire == wireVbufSG:
		r.RDMANicChunkRailInto(&ch.wire, x.req, ch.slot, ib.SGDesc{Buf: ch.vbuf.Ptr, N: ch.n}, ch.rail, ch.rdmaSp)
	default:
		r.RDMAChunkRailInto(&ch.wire, x.req, ch.slot, ch.vbuf.Ptr, ch.n, ch.rail, ch.rdmaSp)
	}
	ch.wire.OnTrigger(ch.wireDoneFn)
}

// wireDone runs at the chunk's local completion: its vbuf, if any, goes
// back to the pool and the chunk is sent.
func (ch *schunk) wireDone() {
	ch.rdmaSp.End()
	if ch.vbuf != nil {
		ch.x.n1.Pool.Put(ch.vbuf)
		ch.vbuf = nil
	}
	ch.sent.Trigger()
}

// waitSent waits for every chunk's send in chunk order, then frees the
// tbuf and completes the request. A packed buffer the receiver holds
// leaves with the tbuf's mapping; one it does not goes to the recycler.
func (x *rsend) waitSent() {
	for ; x.wait < x.total; x.wait++ {
		if ev := &x.chunks[x.wait].sent; !ev.Fired() {
			ev.Then(x.waitFn)
			return
		}
	}
	switch {
	case x.pl.send.pack && x.held:
		if _, err := x.n1.Ctx.Release(x.tbuf); err != nil {
			panic(err)
		}
	case x.pl.send.pack:
		mustFree(x.n1.Ctx, x.tbuf)
	case x.packed != nil && !x.held:
		mem.PutBytes(x.packed)
	}
	req := x.req
	x.free()
	req.CompleteSend()
}

// free returns the record to its node's pool. Its events have fired and
// their waiters have run, so nothing refers to them any more.
func (x *rsend) free() {
	n1 := x.n1
	*x = rsend{sendKeep: x.sendKeep, next: n1.sendFree}
	n1.sendFree = x
}

// ---------------------------------------------------------------------------
// Receiver

// rrecv is one rendezvous receive in flight: it announces the route's
// landing slots, then per arriving chunk stages it to the device if the
// route stages, and unpacks row-aligned groups as their bytes land.
type rrecv struct {
	rndv
	done      int // FINs handled
	announced int // chunks whose slot has been announced
	cur       int // the chunk whose H2D is being issued
	region    ib.Region

	// Progressive unpack: rows are unpacked as soon as all their packed
	// bytes are on the device, which FINs or H2D completions report per
	// chunk. FINs from different rails may overtake each other, so the
	// unpack only advances over the contiguous prefix of landed chunks.
	prefix   int // chunks landed in a row from chunk 0
	unpacked int // packed bytes whose unpack has been issued
	nunpack  int // unpacks issued

	recvKeep
	next *rrecv
}

// recvKeep is what an rrecv keeps from transfer to transfer.
type recvKeep struct {
	chunks      []*rchunk
	unpacks     []*rstage
	slots       []mpi.Slot // announced slots by chunk; each CTS carries a sub-slice
	scatterName string     // "rankN.nicscatter", the scatter events' prefix

	startFn, h2dFn, waitLandFn, lastUnpackFn, waitUnpackFn func()
	gotVbufFn                                              func(*hostmem.Vbuf)
	finFn, scatteredFn                                     func(int)
}

// rchunk is one chunk of a receive.
type rchunk struct {
	x      *rrecv
	c      int
	vbuf   *hostmem.Vbuf
	h2dSp  obs.Span
	ev     sim.Event // its H2D copy or NIC scatter
	finned bool
	landed bool

	h2dDoneFn func()
}

// StartRendezvousRecv starts the receiver of a matched rendezvous. It
// holds the packed buffer the sender offered when its route can read the
// packed stream out of it.
func (t *Transport) StartRendezvousRecv(req *mpi.Request, packed []byte) {
	n1 := t.Node(req.Rank())
	x := n1.recvFree
	if x == nil {
		x = &rrecv{}
		x.startFn, x.h2dFn, x.waitLandFn = x.start, x.h2d, x.waitLand
		x.lastUnpackFn, x.waitUnpackFn = x.lastUnpack, x.waitUnpacks
		x.gotVbufFn, x.finFn, x.scatteredFn = x.gotVbuf, x.fin, x.scattered
	} else {
		n1.recvFree = x.next
		x.next = nil
	}
	x.init(t, n1, req)
	if packed != nil && x.pl.recv.takesPacked() {
		if len(packed) != x.pl.size {
			panic(fmt.Sprintf("core: offered a %d-byte packed buffer for a %d-byte message", len(packed), x.pl.size))
		}
		x.packed = packed
	}
	x.e.CallAt(x.e.Now(), x.startFn)
}

func (x *rrecv) start() {
	pl, r := &x.pl, x.req.Rank()
	x.setTbuf(pl.recv.unpack)
	x.total, x.chunkBytes = r.World().ChunkGeometry(pl.size)
	for len(x.chunks) < x.total {
		ch := &rchunk{x: x, c: len(x.chunks)}
		ch.h2dDoneFn = ch.h2dDone
		x.chunks = append(x.chunks, ch)
	}
	if cap(x.slots) < x.total {
		x.slots = make([]mpi.Slot, x.total)
	}
	x.slots = x.slots[:x.total]

	// Landing: receive vbufs are announced in batches as the pool allows;
	// a registered tbuf or NIC scatter region takes every chunk at once.
	switch pl.recv.land {
	case landVbufs:
		if x.chunkBytes != x.n1.RecvPool.ChunkSize() {
			panic(fmt.Sprintf("core: block size %d != vbuf size %d", x.chunkBytes, x.n1.RecvPool.ChunkSize()))
		}
		x.loop()
		return
	case landTbuf:
		x.region = r.HCA().Register(x.tbuf, pl.size)
	case landScatter:
		if x.scatterName == "" {
			x.scatterName = "rank" + strconv.Itoa(r.Rank()) + ".nicscatter"
		}
		for _, ch := range x.chunks[:x.total] {
			ch.ev.ResetNumbered(x.e, x.scatterName, ch.c)
		}
		x.region = r.HCA().RegisterScatterRegion(pl.sgRange(x.req, 0, pl.size), x.chunkBytes, x.scatteredFn)
	}
	for c := range x.slots {
		x.slots[c] = mpi.Slot{Chunk: c, Rkey: x.region.Rkey, Off: c * x.chunkBytes, Len: x.chunkLen(c)}
	}
	r.SendCTS(x.req, x.total, x.chunkBytes, x.slots, x.packed != nil)
	x.announced = x.total
	x.loop()
}

// loop handles the chunks in FIN arrival order, announcing receive vbufs
// ahead of the FIN it waits for.
func (x *rrecv) loop() {
	switch {
	case x.done == x.total:
		x.waitLand()
	case x.announced <= x.done:
		// Grab every immediately free receive vbuf (at least one, waiting)
		// and announce the batch in one CTS. Receive vbufs recycle as soon
		// as their chunk's H2D completes, and those H2Ds depend only on
		// remote senders — which stage through their own pool — so this
		// wait always ends.
		x.n1.RecvPool.GetThen(x.gotVbufFn)
	default:
		x.req.AwaitFinThen(x.finFn)
	}
}

func (x *rrecv) gotVbuf(v *hostmem.Vbuf) {
	first := x.announced
	for {
		c := x.announced
		x.chunks[c].vbuf = v
		x.slots[c] = mpi.Slot{Chunk: c, Rkey: v.Region.Rkey, Off: 0, Len: x.chunkLen(c)}
		x.announced++
		if x.announced == x.total {
			break
		}
		var ok bool
		v, ok = x.n1.RecvPool.TryGet()
		if !ok {
			break
		}
	}
	x.req.Rank().SendCTS(x.req, x.total, x.chunkBytes, x.slots[first:x.announced:x.announced], x.packed != nil)
	x.loop()
}

func (x *rrecv) fin(c int) {
	if c < 0 || c >= x.total || x.chunks[c].finned {
		panic(fmt.Sprintf("core: bogus FIN for chunk %d", c))
	}
	ch := x.chunks[c]
	ch.finned = true
	if x.pl.recv.h2d == copyNone {
		x.land(c, obs.Span{})
		x.done++
		x.loop()
		return
	}
	ch.h2dSp = x.h.StartChild(x.req.ObsSpan(), obs.KindH2D, x.n1.tracks.h2d[c%x.n1.rails], c, x.chunkLen(c))
	x.cur = c
	x.after(x.issueTime(), x.h2dFn)
}

func (x *rrecv) h2d() {
	n1, c := x.n1, x.cur
	ch, n, off := x.chunks[c], x.chunkLen(c), c*x.chunkBytes
	st := n1.h2dStreams[c%n1.rails]
	switch {
	case x.packed != nil:
		n1.Ctx.MemcpyAsyncNoBytesInto(&ch.ev, x.tbuf.Add(off), ch.vbuf.Ptr, n, st, ch.h2dSp, c)
	case x.pl.recv.h2d == copy1D:
		n1.Ctx.MemcpyAsyncInto(&ch.ev, x.tbuf.Add(off), ch.vbuf.Ptr, n, st, ch.h2dSp, c)
	default:
		uo, w, rows := x.pl.rows2D("h2d", off, n)
		n1.Ctx.Memcpy2DAsyncInto(&ch.ev, x.req.Buf().Add(uo), x.pl.shape.Pitch, ch.vbuf.Ptr, w, w, rows, st, ch.h2dSp, c)
	}
	ch.ev.OnTrigger(ch.h2dDoneFn)
	x.done++
	x.loop()
}

// h2dDone lands the chunk. A contiguous chunk leaves a held packed
// buffer here, in the slot its bytes leave the vbuf in when the hops
// move them.
func (ch *rchunk) h2dDone() {
	x := ch.x
	ch.h2dSp.End()
	x.n1.RecvPool.Put(ch.vbuf)
	ch.vbuf = nil
	x.land(ch.c, ch.h2dSp)
	if x.packed != nil && !x.pl.recv.unpack {
		off := ch.c * x.chunkBytes
		n := x.chunkLen(ch.c)
		x.mustHaveLanded(off, n)
		mem.CopyIn(x.tbuf.Add(off), x.packed[off:off+n])
	}
}

// scattered is the NIC scatter region's per-chunk upcall.
func (x *rrecv) scattered(c int) { x.chunks[c].ev.Trigger() }

// land records chunk c's bytes on the device and unpacks, from engine
// context, what the landed prefix now covers.
func (x *rrecv) land(c int, after obs.Span) {
	pl := &x.pl
	x.chunks[c].landed = true
	if !pl.recv.unpack {
		return
	}
	for x.prefix < x.total && x.chunks[x.prefix].landed {
		x.prefix++
	}
	// The copy engine unpacks whole rows; the kernel path keeps chunk
	// alignment (the prefix only moves in whole chunks), which is what
	// its plan ranges require.
	cut := min(x.prefix*x.chunkBytes, pl.size)
	if pl.uniform && pl.unpackChunkEngine() != engineKernel {
		cut = cut / pl.shape.Width * pl.shape.Width
	}
	if cut > x.unpacked {
		x.prepUnpack(cut, after)
		x.issueUnpack()
	}
}

// prepUnpack opens the unpack of the packed bytes up to through.
func (x *rrecv) prepUnpack(through int, after obs.Span) {
	n := through - x.unpacked
	sp := x.h.StartChild(x.req.ObsSpan(), obs.KindUnpack, x.n1.tracks.unpack, x.nunpack, n)
	sp.DependsOn(after, obs.DepStage)
	x.n1.prepStage(stageAt(&x.unpacks, x.nunpack), &x.pl, false, sp, x.unpacked, n)
}

func (x *rrecv) issueUnpack() {
	s := x.unpacks[x.nunpack]
	x.mustHaveLanded(s.off, s.n)
	x.n1.issueStage(s, &x.pl, x.req, x.tbuf, false, x.nunpack)
	x.nunpack++
	x.unpacked = s.off + s.n
}

// waitLand waits for every chunk's H2D copy or NIC scatter in chunk
// order, then releases the landing region and flushes the unpack tail.
func (x *rrecv) waitLand() {
	if x.pl.recv.land != landTbuf {
		for ; x.wait < x.total; x.wait++ {
			if ev := &x.chunks[x.wait].ev; !ev.Fired() {
				ev.Then(x.waitLandFn)
				return
			}
		}
	}
	if x.pl.recv.land != landVbufs {
		x.req.Rank().HCA().Deregister(x.region)
	}
	x.wait = 0
	switch {
	case !x.pl.recv.unpack:
		x.finish()
	case x.unpacked < x.pl.size:
		x.prepUnpack(x.pl.size, obs.Span{})
		x.after(x.issueTime(), x.lastUnpackFn)
	default:
		x.waitUnpacks()
	}
}

func (x *rrecv) lastUnpack() {
	x.issueUnpack()
	x.waitUnpacks()
}

func (x *rrecv) waitUnpacks() {
	for ; x.wait < x.nunpack; x.wait++ {
		if ev := &x.unpacks[x.wait].ev; !ev.Fired() {
			ev.Then(x.waitUnpackFn)
			return
		}
	}
	x.finish()
}

// mustHaveLanded panics unless every chunk the packed range [off, off+n)
// covers has landed: its H2D has completed or, on a route with no H2D,
// its FIN, which trails its data, has arrived. A held packed buffer has
// the bytes in place long before they land, so an early read would
// still deliver them right: this check is what shows it.
func (x *rrecv) mustHaveLanded(off, n int) {
	for c := off / x.chunkBytes; c < x.total && c*x.chunkBytes < off+n; c++ {
		if !x.chunks[c].landed {
			panic(fmt.Sprintf("core: packed bytes [%d,%d) read before chunk %d landed", off, off+n, c))
		}
	}
}

// finish frees the tbuf and completes the request. A held packed buffer
// goes to the recycler with its tbuf, or by itself when the type is
// contiguous.
func (x *rrecv) finish() {
	switch {
	case x.pl.recv.unpack:
		mustFree(x.n1.Ctx, x.tbuf)
	case x.packed != nil:
		mem.PutBytes(x.packed)
	}
	req := x.req
	x.free()
	req.CompleteRecv()
}

// free returns the record to its node's pool, like rsend.free.
func (x *rrecv) free() {
	n1 := x.n1
	for _, ch := range x.chunks[:x.total] {
		ch.finned, ch.landed = false, false
	}
	*x = rrecv{recvKeep: x.recvKeep, next: n1.recvFree}
	n1.recvFree = x
}
