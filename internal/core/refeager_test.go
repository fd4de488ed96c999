package core

import (
	"fmt"

	"mv2sim/internal/hostmem"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/sim"
)

// refEager is the reference the eager records are checked against: the
// transport with StageToHost and DeliverFromHost as the staging processes
// the records replace, one spawned per message. The records must produce
// the same simulation — the same events at the same instants in the same
// order, the same item count, memory, pool counters and trace.
type refEager struct{ *Transport }

// RefEagerTransport returns t with its eager path run by the reference
// staging processes, for World.SetGPUTransport.
func RefEagerTransport(t *Transport) mpi.GPUTransport { return refEager{t} }

func (t refEager) StageToHost(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpustage", r.Rank()), func(p *sim.Proc) {
		size := pl.size
		packed := mem.GetBytes(size)
		var tbuf mem.Ptr
		if !pl.contig {
			tbuf = n1.Ctx.MustMalloc(size)
			p.Wait(t.packChunk(p, n1, pl, req, req.ObsSpan(), -1, tbuf, 0, size))
		} else {
			tbuf = req.Buf().Add(pl.shape.Off)
		}
		chunk := n1.Pool.ChunkSize()
		var bufs [2]*hostmem.Vbuf
		bufs[0] = n1.Pool.Get(p)
		nbuf := 1
		if size > chunk {
			if v, ok := n1.Pool.TryGet(); ok {
				bufs[1] = v
				nbuf = 2
			}
		}
		var evs [2]*sim.Event
		issue := func(b, off int) {
			n := min(chunk, size-off)
			evs[b] = n1.Ctx.MemcpyAsyncTask(p, bufs[b].Ptr, tbuf.Add(off), n, n1.d2hStreams[0], req.ObsSpan(), -1)
		}
		issue(0, 0)
		b := 0
		for off := 0; off < size; off += chunk {
			n := min(chunk, size-off)
			p.Wait(evs[b])
			next := off + chunk
			if next < size && nbuf == 2 {
				issue(1-b, next)
			}
			hc := r.HostCopyCost(n)
			dst, src := packed[off:off+n], bufs[b].Ptr.Bytes(n)
			e.CallAt(p.Now()+hc, func() { copy(dst, src) })
			p.Sleep(hc)
			if next < size && nbuf == 1 {
				issue(0, next)
			}
			if nbuf == 2 {
				b = 1 - b
			}
		}
		n1.Pool.Put(bufs[0])
		if bufs[1] != nil {
			n1.Pool.Put(bufs[1])
		}
		if !pl.contig {
			mustFree(n1.Ctx, tbuf)
		}
		req.SendPacked(packed)
		mem.PutBytes(packed)
	})
}

func (t refEager) DeliverFromHost(req *mpi.Request, packed []byte) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpudeliver", r.Rank()), func(p *sim.Proc) {
		size := len(packed)
		var tbuf mem.Ptr
		if pl.contig {
			tbuf = req.Buf().Add(pl.shape.Off)
		} else {
			tbuf = n1.Ctx.MustMalloc(size)
		}
		chunk := n1.Pool.ChunkSize()
		var bufs [2]*hostmem.Vbuf
		bufs[0] = n1.RecvPool.Get(p)
		nbuf := 1
		if size > chunk {
			if v, ok := n1.RecvPool.TryGet(); ok {
				bufs[1] = v
				nbuf = 2
			}
		}
		var evs [2]*sim.Event
		b := 0
		for off := 0; off < size; off += chunk {
			n := min(chunk, size-off)
			if evs[b] != nil {
				p.Wait(evs[b])
			}
			hc := r.HostCopyCost(n)
			dst, src := bufs[b].Ptr.Bytes(n), packed[off:off+n]
			e.CallAt(p.Now()+hc, func() { copy(dst, src) })
			p.Sleep(hc)
			evs[b] = n1.Ctx.MemcpyAsyncTask(p, tbuf.Add(off), bufs[b].Ptr, n, n1.h2dStreams[0], req.ObsSpan(), -1)
			if nbuf == 2 {
				b = 1 - b
			}
		}
		mem.PutBytes(packed)
		for i := 0; i < nbuf; i++ {
			if evs[i] != nil {
				p.Wait(evs[i])
			}
		}
		n1.RecvPool.Put(bufs[0])
		if bufs[1] != nil {
			n1.RecvPool.Put(bufs[1])
		}
		if !pl.contig {
			p.Wait(t.unpackChunk(p, n1, pl, req, req.ObsSpan(), -1, tbuf, 0, size))
			mustFree(n1.Ctx, tbuf)
		}
		req.CompleteRecv()
	})
}
