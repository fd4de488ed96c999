package core

import (
	"fmt"

	"mv2sim/internal/hostmem"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// refRndv is the reference the rendezvous records are checked against:
// the transport with StartRendezvousSend and StartRendezvousRecv as the
// pipeline processes the records replace, one "rankN.gpusend" and one
// "rankN.gpurecv" spawned per transfer. The records must produce the same
// simulation — the same events at the same instants in the same order,
// the same item count, memory, pool counters and trace.
type refRndv struct{ *Transport }

// RefRndvTransport returns t with its rendezvous transfers run by the
// reference pipeline processes, for World.SetGPUTransport.
func RefRndvTransport(t *Transport) mpi.GPUTransport { return refRndv{t} }

// packChunk enqueues the device-side pack of packed-byte range
// [off, off+n) from the user buffer into dst (contiguous device memory) and
// returns the completion event. p may be nil in engine context. sp is the
// enclosing stage span and chunk the pipeline chunk index; kernel-path ops
// are traced under them.
func (t *Transport) packChunk(p *sim.Proc, n1 *NodeGPU, pl plan, req *mpi.Request, sp obs.Span, chunk int, dst mem.Ptr, off, n int) *sim.Event {
	src := req.Buf()
	if pl.packByCopy(off) {
		uo, w, rows := pl.rows2D("pack", off, n)
		return n1.Ctx.Memcpy2DAsyncTask(p, dst, w, src.Add(uo), pl.shape.Pitch, w, rows, n1.packStream, sp, chunk)
	}
	// Kernel path: a gather kernel walks the cached chunk plan's segments
	// on the compute engine (callers keep off/n chunk-aligned).
	d := pl.cp.Kernel(off, n)
	n1.kernOps++
	ev := n1.Ctx.LaunchKernelTask(p, n1.packStream, sp, chunk, d.Bytes(), n1.Ctx.Model().PackKernelRate(d.Bytes(), d.Segments()), func() {
		d.Pack(dst, src)
	})
	ev.OnTrigger(n1.kernDoneFn)
	return ev
}

// unpackChunk is the inverse: scatter packed range [off, off+n) from src
// (contiguous device memory) into the user buffer.
func (t *Transport) unpackChunk(p *sim.Proc, n1 *NodeGPU, pl plan, req *mpi.Request, sp obs.Span, chunk int, src mem.Ptr, off, n int) *sim.Event {
	dst := req.Buf()
	if pl.unpackByCopy(off) {
		uo, w, rows := pl.rows2D("unpack", off, n)
		return n1.Ctx.Memcpy2DAsyncTask(p, dst.Add(uo), pl.shape.Pitch, src, w, w, rows, n1.unpackStream, sp, chunk)
	}
	d := pl.cp.Kernel(off, n)
	n1.kernOps++
	ev := n1.Ctx.LaunchKernelTask(p, n1.unpackStream, sp, chunk, d.Bytes(), n1.Ctx.Model().PackKernelRate(d.Bytes(), d.Segments()), func() {
		d.Unpack(dst, src)
	})
	ev.OnTrigger(n1.kernDoneFn)
	return ev
}

// StartRendezvousSend sends the RTS immediately and starts packing before
// the CTS arrives, overlapping the handshake with datatype processing.
func (t refRndv) StartRendezvousSend(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	r.SendRTS(req)
	r.World().Engine().Spawn(fmt.Sprintf("rank%d.gpusend", r.Rank()), func(p *sim.Proc) {
		if pl.send.pack {
			tbuf := n1.Ctx.MustMalloc(pl.size)
			t.send(p, n1, &pl, req, tbuf)
			mustFree(n1.Ctx, tbuf)
		} else {
			t.send(p, n1, &pl, req, req.Buf().Add(pl.shape.Off)) // contiguous bytes stage in place
		}
		req.CompleteSend()
	})
}

// packStep is one issued stage-1 pack: its completion covers the packed
// bytes below through.
type packStep struct {
	done    *sim.Event
	through int
	sp      obs.Span
}

// send is the sender pipeline, stages 1-3 as pl.send routes them. tbuf
// holds the packed bytes (the user buffer for a contiguous type).
func (t refRndv) send(p *sim.Proc, n1 *NodeGPU, pl *plan, req *mpi.Request, tbuf mem.Ptr) {
	r := req.Rank()
	e := r.World().Engine()
	h, parent, rt := t.hub, req.ObsSpan(), pl.send
	size := pl.size
	blockSize := r.World().Config().BlockSize

	// Stage 1: issue all device-side packs up front (row-aligned groups
	// close to the block size for the copy engine, chunk-aligned blocks
	// for the pack kernel), building a contiguous packed tbuf.
	var packs []packStep
	if rt.pack {
		step := size
		if pl.uniform && pl.packChunkEngine() != engineKernel {
			rows := max(1, blockSize/pl.shape.Width)
			step = rows * pl.shape.Width
		} else if size > blockSize {
			step = blockSize
		}
		for off := 0; off < size; off += step {
			n := min(step, size-off)
			idx := len(packs)
			sp := h.StartChild(parent, obs.KindPack, n1.tracks.pack, idx, n)
			ev := t.packChunk(p, n1, *pl, req, sp, idx, tbuf.Add(off), off, n)
			packs = append(packs, packStep{ev, off + n, sp})
			if sp.Active() {
				ev.OnTrigger(sp.End)
			}
		}
	}

	// Rendezvous handshake: by now the RTS is long gone; wait for the
	// receiver's chunk geometry.
	total, chunkBytes := req.AwaitCTS(p)
	if want := (size + blockSize - 1) / blockSize; chunkBytes != blockSize || total != want {
		panic(fmt.Sprintf("core: receiver announced %d chunks of %d bytes, want %d of %d", total, chunkBytes, want, blockSize))
	}

	// wire posts a chunk's stage 3 under sp: an RDMA write, or a NIC
	// gather, of the route's source.
	wire := func(slot mpi.Slot, vbuf *hostmem.Vbuf, off, n, rail int, sp obs.Span) *sim.Event {
		done := new(sim.Event)
		switch rt.wire {
		case wireTbuf:
			r.RDMAChunkRailInto(done, req, slot, tbuf.Add(off), n, rail, sp)
		case wireGather:
			r.RDMANicChunkRailInto(done, req, slot, pl.sgRange(req, off, n), rail, sp)
		case wireVbufSG:
			r.RDMANicChunkRailInto(done, req, slot, ib.SGDesc{Buf: vbuf.Ptr, N: n}, rail, sp)
		default:
			r.RDMAChunkRailInto(done, req, slot, vbuf.Ptr, n, rail, sp)
		}
		return done
	}

	// Per chunk: wait for its slot and its pack, stage it into a vbuf
	// (D2H) if the route stages, put it on the wire (+ FIN), and recycle
	// the vbuf at local completion. Chained via completion callbacks so
	// chunk i's RDMA overlaps chunk i+1's D2H and later packs. Chunks stripe round-robin: chunk c stages
	// on D2H stream c%rails and flies on HCA rail c%rails, so with R rails
	// up to R chunks occupy PCIe queues and wires concurrently.
	chunkSent := make([]*sim.Event, total)
	for c := 0; c < total; c++ {
		rail := c % n1.rails
		off := c * chunkBytes
		n := min(chunkBytes, size-off)
		slot := req.AwaitSlot(p, c)
		var pack obs.Span
		if rt.pack {
			ps := packs[len(packs)-1]
			for _, s := range packs {
				if s.through >= off+n {
					ps = s
					break
				}
			}
			p.Wait(ps.done)
			pack = ps.sp
		}
		var vbuf *hostmem.Vbuf
		if rt.d2h != copyNone {
			vbuf = n1.Pool.GetRail(p, rail)
		}
		kind, suffix := rt.sentName()
		sent := e.NewEvent(fmt.Sprintf("rank%d.%s%d%s", r.Rank(), kind, c, suffix))
		chunkSent[c] = sent
		if rt.d2h == copyNone {
			sp := h.StartChild(parent, obs.KindRDMA, n1.tracks.rdma[rail], c, n)
			sp.DependsOn(pack, obs.DepPack)
			rdma := wire(slot, nil, off, n, rail, sp)
			if sp.Active() {
				rdma.OnTrigger(sp.End)
			}
			rdma.OnTrigger(sent.Trigger)
			continue
		}
		d2hSp := h.StartChild(parent, obs.KindD2H, n1.tracks.d2h[rail], c, n)
		d2hSp.DependsOn(pack, obs.DepPack)
		var d2h *sim.Event
		if rt.d2h == copy1D {
			d2h = n1.Ctx.MemcpyAsyncTask(p, vbuf.Ptr, tbuf.Add(off), n, n1.d2hStreams[rail], d2hSp, c)
		} else {
			uo, w, rows := pl.rows2D("d2h", off, n)
			d2h = n1.Ctx.Memcpy2DAsyncTask(p, vbuf.Ptr, w, req.Buf().Add(uo), pl.shape.Pitch, w, rows, n1.d2hStreams[rail], d2hSp, c)
		}
		d2h.OnTrigger(func() {
			d2hSp.End()
			rdmaSp := h.StartChild(parent, obs.KindRDMA, n1.tracks.rdma[rail], c, n)
			rdmaSp.DependsOn(d2hSp, obs.DepStage)
			wire(slot, vbuf, off, n, rail, rdmaSp).OnTrigger(func() {
				rdmaSp.End()
				n1.Pool.Put(vbuf)
				sent.Trigger()
			})
		})
	}
	p.WaitAll(chunkSent...)
}

// StartRendezvousRecv announces the route's landing slots, then per
// arriving chunk stages it to the device if the route stages, and unpacks
// row-aligned groups as their bytes land.
func (t refRndv) StartRendezvousRecv(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	r.World().Engine().Spawn(fmt.Sprintf("rank%d.gpurecv", r.Rank()), func(p *sim.Proc) {
		if pl.recv.unpack {
			tbuf := n1.Ctx.MustMalloc(pl.size)
			t.recv(p, n1, &pl, req, tbuf)
			mustFree(n1.Ctx, tbuf)
		} else {
			t.recv(p, n1, &pl, req, req.Buf().Add(pl.shape.Off)) // contiguous bytes land in place
		}
		req.CompleteRecv()
	})
}

// recv is the receiver pipeline, stages 4-5 as pl.recv routes them. tbuf
// receives the packed bytes (the user buffer for a contiguous type).
func (t refRndv) recv(p *sim.Proc, n1 *NodeGPU, pl *plan, req *mpi.Request, tbuf mem.Ptr) {
	r := req.Rank()
	h, parent, rt := t.hub, req.ObsSpan(), pl.recv
	size := pl.size
	total, chunkBytes := r.World().ChunkGeometry(size)
	chunkLen := func(c int) int { return min(chunkBytes, size-c*chunkBytes) }

	// Progressive unpack: rows are unpacked as soon as all their packed
	// bytes are on the device, which FINs or H2D completions report per
	// chunk. FINs from different rails may overtake each other, so the
	// unpack only advances over the contiguous prefix of landed chunks.
	unpackedThrough := 0
	var unpackEvs []*sim.Event
	unpack := func(p *sim.Proc, through int, after obs.Span) {
		idx, n := len(unpackEvs), through-unpackedThrough
		sp := h.StartChild(parent, obs.KindUnpack, n1.tracks.unpack, idx, n)
		sp.DependsOn(after, obs.DepStage)
		ev := t.unpackChunk(p, n1, *pl, req, sp, idx, tbuf.Add(unpackedThrough), unpackedThrough, n)
		unpackEvs = append(unpackEvs, ev)
		if sp.Active() {
			ev.OnTrigger(sp.End)
		}
		unpackedThrough = through
	}
	landed := make([]bool, total)
	prefix := 0
	land := func(c int, after obs.Span) {
		if !rt.unpack {
			return
		}
		landed[c] = true
		for prefix < total && landed[prefix] {
			prefix++
		}
		// The copy engine unpacks whole rows; the kernel path keeps chunk
		// alignment (the prefix only moves in whole chunks), which is what
		// its plan ranges require.
		cut := min(prefix*chunkBytes, size)
		if pl.uniform && pl.unpackChunkEngine() != engineKernel {
			cut = cut / pl.shape.Width * pl.shape.Width
		}
		if cut > unpackedThrough {
			unpack(nil, cut, after)
		}
	}

	// Landing: receive vbufs are announced in batches as the pool allows;
	// a registered tbuf or NIC scatter region takes every chunk at once.
	var slotVbuf []*hostmem.Vbuf
	var landDone []*sim.Event // per chunk: its H2D copy or NIC scatter
	var region ib.Region
	announced := 0
	switch rt.land {
	case landVbufs:
		if chunkBytes != n1.RecvPool.ChunkSize() {
			panic(fmt.Sprintf("core: block size %d != vbuf size %d", chunkBytes, n1.RecvPool.ChunkSize()))
		}
		slotVbuf = make([]*hostmem.Vbuf, total)
		landDone = make([]*sim.Event, total)
	case landTbuf:
		region = r.HCA().Register(tbuf, size)
	case landScatter:
		landDone = make([]*sim.Event, total)
		for c := range landDone {
			landDone[c] = r.World().Engine().NewEvent(fmt.Sprintf("rank%d.nicscatter%d", r.Rank(), c))
		}
		region = r.HCA().RegisterScatterRegion(pl.sgRange(req, 0, size), chunkBytes, func(chunk int) {
			landDone[chunk].Trigger()
		})
	}
	if rt.land != landVbufs {
		slots := make([]mpi.Slot, total)
		for c := range slots {
			slots[c] = mpi.Slot{Chunk: c, Rkey: region.Rkey, Off: c * chunkBytes, Len: chunkLen(c)}
		}
		r.SendCTS(req, total, chunkBytes, slots)
		announced = total
	}
	announce := func() {
		// Grab every immediately free receive vbuf (at least one,
		// blocking) and announce the batch in one CTS. Receive vbufs
		// recycle as soon as their chunk's H2D completes, and those H2Ds
		// depend only on remote senders — which stage through their own
		// pool — so this blocking Get always unblocks.
		var slots []mpi.Slot
		v := n1.RecvPool.Get(p)
		for {
			c := announced
			slotVbuf[c] = v
			slots = append(slots, mpi.Slot{Chunk: c, Rkey: v.Region.Rkey, Off: 0, Len: chunkLen(c)})
			announced++
			if announced == total {
				break
			}
			var ok bool
			v, ok = n1.RecvPool.TryGet()
			if !ok {
				break
			}
		}
		r.SendCTS(req, total, chunkBytes, slots)
	}

	// Chunks are processed in FIN arrival order.
	finned := make([]bool, total)
	for done := 0; done < total; done++ {
		for announced <= done {
			announce()
		}
		c := req.AwaitFin(p)
		if c < 0 || c >= total || finned[c] {
			panic(fmt.Sprintf("core: bogus FIN for chunk %d", c))
		}
		finned[c] = true
		if rt.h2d == copyNone {
			land(c, obs.Span{})
			continue
		}
		vbuf := slotVbuf[c]
		n := chunkLen(c)
		off := c * chunkBytes
		rail := c % n1.rails
		h2dSp := h.StartChild(parent, obs.KindH2D, n1.tracks.h2d[rail], c, n)
		var ev *sim.Event
		if rt.h2d == copy1D {
			ev = n1.Ctx.MemcpyAsyncTask(p, tbuf.Add(off), vbuf.Ptr, n, n1.h2dStreams[rail], h2dSp, c)
		} else {
			uo, w, rows := pl.rows2D("h2d", off, n)
			ev = n1.Ctx.Memcpy2DAsyncTask(p, req.Buf().Add(uo), pl.shape.Pitch, vbuf.Ptr, w, w, rows, n1.h2dStreams[rail], h2dSp, c)
		}
		landDone[c] = ev
		ev.OnTrigger(func() {
			h2dSp.End()
			n1.RecvPool.Put(vbuf)
			land(c, h2dSp)
		})
	}
	p.WaitAll(landDone...)
	if rt.land != landVbufs {
		r.HCA().Deregister(region)
	}
	// All bytes are on the device; flush any unpack tail and wait.
	if rt.unpack {
		if unpackedThrough < size {
			unpack(p, size, obs.Span{})
		}
		p.WaitAll(unpackEvs...)
	}
}
