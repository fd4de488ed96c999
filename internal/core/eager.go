package core

import (
	"mv2sim/internal/datatype"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/sim"
)

// ---------------------------------------------------------------------------
// Eager path (and self-sends of any size)
//
// Eager staging runs as continuations, not processes: each message is an
// eager record whose steps are the stretches between the blocking calls
// of a staging process — p.Sleep(d) becomes CallAt(now+d, step), the
// AsyncIssue sleep inside a CUDA launch included; p.Wait(ev) becomes
// ev.Then(step); Pool.Get becomes Pool.GetThen. Each step takes the
// (time, seq) slot the process's wake-up took (see package sim), so the
// event order, Events() and every trace byte are those of the process;
// only its coroutine switches and allocations go. The stream ops
// complete events the record holds by value (cuda's *Into forms), and a
// kernel's kernOps decrement stays an inline OnTrigger callback, so
// resolveEngine's busy check sees the count the process would have left.

// eager is one eager message in flight through StageToHost or
// DeliverFromHost. Records are pooled per node; their steps are method
// values bound once, so a message allocates nothing.
type eager struct {
	n1     *NodeGPU
	e      *sim.Engine
	req    *mpi.Request
	pl     plan
	packed []byte
	size   int
	tbuf   mem.Ptr // packed copy on the device, or the user buffer when contiguous

	bufs [2]*hostmem.Vbuf
	nbuf int
	// ev[b] completes the stream op in flight on vbuf b; ev[0] also
	// carries the pack before staging and the unpack after it.
	ev     [2]sim.Event
	issued [2]bool // deliver: vbuf b has had an H2D issued
	b, off int     // vbuf and packed offset of the current chunk
	// The D2H being issued (stage side), and the next vbuf to wait for in
	// the deliver side's final drain.
	issueB, issueOff, drain int

	kernel bool                // the pack or unpack runs as a kernel
	kd     datatype.KernelDesc // that kernel's segments
	// Operands of the host memcpy call in flight.
	copyDst, copySrc []byte

	eagerSteps
	next *eager
}

// eagerSteps are a record's steps, bound once as method values.
type eagerSteps struct {
	startFn, packFn, getStageFn, drainedFn, copiedFn, d2hFn  func()
	deliverFn, fillFn, filledFn, h2dFn, drainAllFn, unpackFn func()
	deliverDoneFn, copyFn, packBodyFn, unpackBodyFn          func()
	gotStageFn, gotDeliverFn                                 func(*hostmem.Vbuf)
}

// newEager takes a record from the node's pool.
func (n1 *NodeGPU) newEager(req *mpi.Request, pl plan) *eager {
	x := n1.eagerFree
	if x == nil {
		x = &eager{}
		x.startFn, x.packFn, x.getStageFn = x.stageStart, x.pack, x.getStage
		x.drainedFn, x.copiedFn, x.d2hFn = x.drained, x.copied, x.d2h
		x.deliverFn, x.fillFn, x.filledFn, x.h2dFn = x.deliverStart, x.fill, x.filled, x.h2d
		x.drainAllFn, x.unpackFn, x.deliverDoneFn = x.drainAll, x.unpack, x.deliverDone
		x.copyFn, x.packBodyFn, x.unpackBodyFn = x.copyTask, x.packBody, x.unpackBody
		x.gotStageFn, x.gotDeliverFn = x.gotStage, x.gotDeliver
	} else {
		n1.eagerFree = x.next
	}
	x.n1, x.e, x.req, x.pl = n1, req.Rank().World().Engine(), req, pl
	return x
}

// free returns the record to its node's pool. Its events have fired and
// their waiters have run, so nothing refers to them any more.
func (x *eager) free() {
	n1 := x.n1
	*x = eager{eagerSteps: x.eagerSteps, next: n1.eagerFree}
	n1.eagerFree = x
}

// after schedules step d from now: the continuation form of p.Sleep(d).
func (x *eager) after(d sim.Time, step func()) { x.e.CallAt(x.e.Now()+d, step) }

// issueTime is the host cost of an async CUDA launch (cuda's issue).
func (x *eager) issueTime() sim.Time { return x.n1.Ctx.Model().AsyncIssue }

// chunkLen is the length of the chunk at packed offset off.
func (x *eager) chunkLen(off int) int { return min(x.n1.Pool.ChunkSize(), x.size-off) }

// hostCopy models a host memcpy of src into dst: the bytes move in a
// call at the end of the modeled copy, and step follows in the next
// slot.
func (x *eager) hostCopy(dst, src []byte, step func()) {
	hc := x.req.Rank().HostCopyCost(len(dst))
	x.copyDst, x.copySrc = dst, src
	x.e.CallAt(x.e.Now()+hc, x.copyFn)
	x.after(hc, step)
}

// mallocTbuf allocates the message's packed copy on the device. A step
// that panics makes Run re-raise the panic to its caller, as a process
// body's panic does.
func (x *eager) mallocTbuf() {
	p, err := x.n1.Ctx.Malloc(x.size)
	if err != nil {
		panic(err)
	}
	x.tbuf = p
}

func (x *eager) copyTask() { copy(x.copyDst, x.copySrc) }

func (x *eager) packBody()   { x.kd.Pack(x.tbuf, x.req.Buf()) }
func (x *eager) unpackBody() { x.kd.Unpack(x.req.Buf(), x.tbuf) }

// StageToHost packs the device buffer and stages it into host bytes:
// D2D pack into tbuf, then chunk-sized D2H copies double-buffered through
// two vbufs, so the host memcpy draining chunk i overlaps chunk i+1's D2H.
// The second vbuf is best-effort (TryGet): a drained pool degrades to the
// serial single-vbuf path instead of risking deadlock. The packed bytes
// live in a pooled buffer that is recycled once req.SendPacked returns.
func (t *Transport) StageToHost(req *mpi.Request) {
	n1 := t.Node(req.Rank())
	x := n1.newEager(req, t.planFor(req))
	x.e.CallAt(x.e.Now(), x.startFn)
}

func (x *eager) stageStart() {
	n1, pl := x.n1, x.pl
	x.size = pl.size
	x.packed = mem.GetBytes(x.size)
	if pl.contig {
		x.tbuf = x.req.Buf().Add(pl.shape.Off)
		x.getStage()
		return
	}
	x.mallocTbuf()
	x.kernel = !pl.packByCopy(0)
	if x.kernel {
		x.kd = pl.cp.Kernel(0, x.size)
		n1.kernOps++
	}
	x.after(x.issueTime(), x.packFn)
}

// pack enqueues the D2D pack of the whole message into tbuf.
func (x *eager) pack() {
	n1, pl, sp := x.n1, x.pl, x.req.ObsSpan()
	if x.kernel {
		n1.Ctx.LaunchKernelInto(&x.ev[0], n1.packStream, sp, -1, x.kd.Bytes(), n1.Ctx.Model().PackKernelRate(x.kd.Bytes(), x.kd.Segments()), x.packBodyFn)
		x.ev[0].OnTrigger(n1.kernDoneFn)
	} else {
		uo, w, rows := pl.rows2D("pack", 0, x.size)
		n1.Ctx.Memcpy2DAsyncInto(&x.ev[0], x.tbuf, w, x.req.Buf().Add(uo), pl.shape.Pitch, w, rows, n1.packStream, sp, -1)
	}
	x.ev[0].Then(x.getStageFn)
}

func (x *eager) getStage() { x.n1.Pool.GetThen(x.gotStageFn) }

func (x *eager) gotStage(v *hostmem.Vbuf) {
	x.bufs[0], x.nbuf = v, 1
	if x.size > x.n1.Pool.ChunkSize() {
		if v, ok := x.n1.Pool.TryGet(); ok {
			x.bufs[1], x.nbuf = v, 2
		}
	}
	x.b, x.off = 0, 0
	x.issueB, x.issueOff = 0, 0
	x.after(x.issueTime(), x.d2hFn)
}

// d2h enqueues the D2H of the chunk at issueOff into vbuf issueB. A D2H
// issued ahead of the current chunk (double-buffered) is followed by the
// current chunk's host copy; any other returns to the loop.
func (x *eager) d2h() {
	n1 := x.n1
	n1.Ctx.MemcpyAsyncInto(&x.ev[x.issueB], x.bufs[x.issueB].Ptr, x.tbuf.Add(x.issueOff), x.chunkLen(x.issueOff), n1.d2hStreams[0], x.req.ObsSpan(), -1)
	if x.issueOff > x.off {
		x.drainChunk()
		return
	}
	x.stageLoop()
}

// stageLoop waits for the current chunk's D2H, or finishes.
func (x *eager) stageLoop() {
	if x.off >= x.size {
		x.stageDone()
		return
	}
	x.ev[x.b].Then(x.drainedFn)
}

// drained runs when the current chunk is in its vbuf: with two vbufs the
// next chunk's D2H is issued before the host copy drains this one.
func (x *eager) drained() {
	if next := x.off + x.n1.Pool.ChunkSize(); next < x.size && x.nbuf == 2 {
		x.issueB, x.issueOff = 1-x.b, next
		x.after(x.issueTime(), x.d2hFn)
		return
	}
	x.drainChunk()
}

// drainChunk copies the current chunk from its vbuf into packed. The
// vbuf is not re-filled before the copy's call has run, and packed is
// only read once the loop is over.
func (x *eager) drainChunk() {
	n := x.chunkLen(x.off)
	x.hostCopy(x.packed[x.off:x.off+n], x.bufs[x.b].Ptr.Bytes(n), x.copiedFn)
}

func (x *eager) copied() {
	next := x.off + x.n1.Pool.ChunkSize()
	x.off = next
	if x.nbuf == 2 {
		x.b = 1 - x.b
	} else if next < x.size {
		x.issueB, x.issueOff = 0, next
		x.after(x.issueTime(), x.d2hFn)
		return
	}
	x.stageLoop()
}

// stageDone returns the vbufs and tbuf and hands packed to the protocol.
// The record is free by then, so a self-send's delivery may reuse it.
func (x *eager) stageDone() {
	n1 := x.n1
	n1.Pool.Put(x.bufs[0])
	if x.bufs[1] != nil {
		n1.Pool.Put(x.bufs[1])
	}
	if !x.pl.contig {
		mustFree(n1.Ctx, x.tbuf)
	}
	req, packed := x.req, x.packed
	x.free()
	req.SendPacked(packed)
	mem.PutBytes(packed)
}

// DeliverFromHost unpacks eager payload bytes into the device buffer:
// host copy into a vbuf, H2D into tbuf, D2D unpack, complete. The host
// copies and H2D transfers are double-buffered across two vbufs (when the
// pool allows): the H2D of chunk i runs while the host fills chunk i+1.
// packed goes back to the recycler (mem.PutBytes) once the fills have read it.
func (t *Transport) DeliverFromHost(req *mpi.Request, packed []byte) {
	n1 := t.Node(req.Rank())
	x := n1.newEager(req, t.planFor(req))
	x.packed = packed
	x.e.CallAt(x.e.Now(), x.deliverFn)
}

func (x *eager) deliverStart() {
	x.size = len(x.packed)
	if x.pl.contig {
		x.tbuf = x.req.Buf().Add(x.pl.shape.Off)
	} else {
		x.mallocTbuf()
	}
	x.n1.RecvPool.GetThen(x.gotDeliverFn)
}

func (x *eager) gotDeliver(v *hostmem.Vbuf) {
	x.bufs[0], x.nbuf = v, 1
	if x.size > x.n1.Pool.ChunkSize() {
		if v, ok := x.n1.RecvPool.TryGet(); ok {
			x.bufs[1], x.nbuf = v, 2
		}
	}
	x.b, x.off = 0, 0
	x.deliverLoop()
}

// deliverLoop fills the next chunk once its vbuf's previous H2D has
// drained it, or drains the pipeline.
func (x *eager) deliverLoop() {
	switch {
	case x.off >= x.size:
		// Every fill copy's slot has passed, so nothing reads packed now.
		mem.PutBytes(x.packed)
		x.packed = nil
		x.drain = 0
		x.drainAll()
	case x.issued[x.b]:
		x.ev[x.b].Then(x.fillFn)
	default:
		x.fill()
	}
}

// fill copies the current chunk into its vbuf; the H2D that reads the
// vbuf is issued after the copy's call has run.
func (x *eager) fill() {
	n := x.chunkLen(x.off)
	x.hostCopy(x.bufs[x.b].Ptr.Bytes(n), x.packed[x.off:x.off+n], x.filledFn)
}

func (x *eager) filled() { x.after(x.issueTime(), x.h2dFn) }

func (x *eager) h2d() {
	n1 := x.n1
	n1.Ctx.MemcpyAsyncInto(&x.ev[x.b], x.tbuf.Add(x.off), x.bufs[x.b].Ptr, x.chunkLen(x.off), n1.h2dStreams[0], x.req.ObsSpan(), -1)
	x.issued[x.b] = true
	if x.nbuf == 2 {
		x.b = 1 - x.b
	}
	x.off += n1.Pool.ChunkSize()
	x.deliverLoop()
}

// drainAll waits for the H2Ds of vbuf 0, then vbuf 1, then returns the
// vbufs and unpacks.
func (x *eager) drainAll() {
	for x.drain < x.nbuf {
		i := x.drain
		x.drain++
		if x.issued[i] {
			x.ev[i].Then(x.drainAllFn)
			return
		}
	}
	n1 := x.n1
	n1.RecvPool.Put(x.bufs[0])
	if x.bufs[1] != nil {
		n1.RecvPool.Put(x.bufs[1])
	}
	if x.pl.contig {
		x.deliverDone()
		return
	}
	x.kernel = !x.pl.unpackByCopy(0)
	if x.kernel {
		x.kd = x.pl.cp.Kernel(0, x.size)
		n1.kernOps++
	}
	x.after(x.issueTime(), x.unpackFn)
}

// unpack enqueues the D2D unpack of tbuf into the user buffer.
func (x *eager) unpack() {
	n1, pl, sp := x.n1, x.pl, x.req.ObsSpan()
	if x.kernel {
		n1.Ctx.LaunchKernelInto(&x.ev[0], n1.unpackStream, sp, -1, x.kd.Bytes(), n1.Ctx.Model().PackKernelRate(x.kd.Bytes(), x.kd.Segments()), x.unpackBodyFn)
		x.ev[0].OnTrigger(n1.kernDoneFn)
	} else {
		uo, w, rows := pl.rows2D("unpack", 0, x.size)
		n1.Ctx.Memcpy2DAsyncInto(&x.ev[0], x.req.Buf().Add(uo), pl.shape.Pitch, x.tbuf, w, w, rows, n1.unpackStream, sp, -1)
	}
	x.ev[0].Then(x.deliverDoneFn)
}

func (x *eager) deliverDone() {
	if !x.pl.contig {
		mustFree(x.n1.Ctx, x.tbuf)
	}
	req := x.req
	x.free()
	req.CompleteRecv()
}
