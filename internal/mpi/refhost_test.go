package mpi

import (
	"fmt"

	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// refHost is the reference the host rendezvous records (hostrndv.go and
// proto_get.go) are checked against: every transfer side runs as the
// protocol process the records replace, one "rankN.hostsendM",
// "rankN.hostrecvM" or "rankN.getrecvM" spawned per transfer. The records
// must produce the same simulation — the same events at the same instants
// in the same order, the same item count, memory and trace.
type refHost struct{}

// UseRefHostRendezvous makes w run its host-memory rendezvous on the
// reference processes. Call it before communication starts.
func UseRefHostRendezvous(w *World) { w.host = refHost{} }

// AllocatedRequests reports how many requests r has allocated, recycled
// ones not counted.
func AllocatedRequests(r *Rank) int { return r.allocReqs }

func (refHost) sendData(q *Request) {
	r := q.r
	r.w.e.Spawn(fmt.Sprintf("rank%d.hostsend%d", r.rank, q.id), func(p *sim.Proc) {
		refSendHostData(p, q)
	})
}

func (refHost) recvData(q *Request) {
	r := q.r
	r.w.e.Spawn(fmt.Sprintf("rank%d.hostrecv%d", r.rank, q.id), func(p *sim.Proc) {
		refRecvHostData(p, q)
	})
}

func (refHost) recvGet(q *Request) {
	r := q.r
	r.w.e.Spawn(fmt.Sprintf("rank%d.getrecv%d", r.rank, q.id), func(p *sim.Proc) {
		if q.buf.IsDevice() {
			refRecvDeviceGet(p, q)
		} else {
			refRecvHostGet(p, q)
		}
	})
}

// refSendHostData is the host-memory rendezvous sender: pack each chunk
// on the CPU and place it. Chunks are processed in order; each chunk's
// pack overlaps the previous chunk's wire time through the async RDMA
// post.
func refSendHostData(p *sim.Proc, q *Request) {
	r := q.r
	total, chunkBytes := q.AwaitCTS(p)
	plan := q.dt.ChunkPlan(q.count, chunkBytes)
	staging := r.AllocHost(chunkBytes)
	defer r.FreeHost(staging)
	var lastEv *sim.Event
	for c := 0; c < total; c++ {
		s := q.AwaitSlot(p, c)
		off := c * chunkBytes
		p.Sleep(r.hostCopyCost(s.Len))
		plan.PackRange(staging, q.buf, off, s.Len)
		lastEv = new(sim.Event)
		r.RDMAChunkRailInto(lastEv, q, s, staging, s.Len, 0, obs.Span{})
		// The staging buffer is reused next iteration, so wait for the
		// HCA to have read it (local completion).
		p.Wait(lastEv)
	}
	if lastEv != nil {
		p.Wait(lastEv)
	}
	q.CompleteSend()
}

// refRecvHostData is the host-memory rendezvous receiver: zero-copy into
// a contiguous user buffer, otherwise into a temporary packed buffer
// scattered once all chunks have arrived.
func refRecvHostData(p *sim.Proc, q *Request) {
	r := q.r
	size := q.matchedSize
	total, chunkBytes := r.w.ChunkGeometry(size)

	var landing mem.Ptr
	temp := false
	if zeroCopy(q.dt, q.count) {
		landing = q.buf
	} else {
		landing = r.AllocHost(size)
		temp = true
	}
	region := r.hca.Register(landing, size)

	slots := make([]Slot, total)
	for c := 0; c < total; c++ {
		n := chunkBytes
		if off := c * chunkBytes; off+n > size {
			n = size - off
		}
		slots[c] = Slot{Chunk: c, Rkey: region.Rkey, Off: c * chunkBytes, Len: n}
	}
	r.SendCTS(q, total, chunkBytes, slots)

	for got := 0; got < total; got++ {
		q.AwaitFin(p)
	}
	r.hca.Deregister(region)
	if temp {
		p.Sleep(r.hostPackCost(q.dt, q.count))
		elems := size / q.dt.Size()
		q.dt.Unpack(q.buf, landing, elems)
		r.FreeHost(landing)
	}
	q.CompleteRecv()
}

// refRecvHostGet pulls the advertised data chunk by chunk with reads
// issued back to back, acknowledges with DONE and unpacks.
func refRecvHostGet(p *sim.Proc, q *Request) {
	r := q.r
	size := q.matchedSize
	total, chunkBytes := r.w.ChunkGeometry(size)

	var landing mem.Ptr
	temp := false
	if zeroCopy(q.dt, q.count) {
		landing = q.buf
	} else {
		landing = r.AllocHost(size)
		temp = true
	}
	reads := make([]*sim.Event, 0, total)
	for c := 0; c < total; c++ {
		off := c * chunkBytes
		n := chunkBytes
		if off+n > size {
			n = size - off
		}
		ev := new(sim.Event)
		r.hca.RDMAReadInto(ev, landing.Add(off), q.peer, q.rkey, off, n)
		reads = append(reads, ev)
	}
	p.WaitAll(reads...)
	r.post(nil, q.peer, header{kind: hdrDone, sendID: q.peerID}, nil, 0)
	if temp {
		p.Sleep(r.hostPackCost(q.dt, q.count))
		q.dt.Unpack(q.buf, landing, size/q.dt.Size())
		r.FreeHost(landing)
	}
	q.CompleteRecv()
}

// refRecvDeviceGet serves a get-RTS whose receive buffer lives in device
// memory: pull into pinned host staging, then hand the packed bytes to
// the GPU transport's delivery path.
func refRecvDeviceGet(p *sim.Proc, q *Request) {
	r := q.r
	size := q.matchedSize
	staging := r.AllocHost(size)
	total, chunkBytes := r.w.ChunkGeometry(size)
	reads := make([]*sim.Event, 0, total)
	for c := 0; c < total; c++ {
		off := c * chunkBytes
		n := chunkBytes
		if off+n > size {
			n = size - off
		}
		ev := new(sim.Event)
		r.hca.RDMAReadInto(ev, staging.Add(off), q.peer, q.rkey, off, n)
		reads = append(reads, ev)
	}
	p.WaitAll(reads...)
	r.post(nil, q.peer, header{kind: hdrDone, sendID: q.peerID}, nil, 0)
	packed := mem.GetBytes(size)
	copy(packed, staging.Bytes(size))
	r.FreeHost(staging)
	r.transport().DeliverFromHost(q, packed)
}
