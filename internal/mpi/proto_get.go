package mpi

import (
	"fmt"

	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// Get-based (receiver-driven) rendezvous, the RGET protocol MVAPICH2
// offers alongside the put-based default. The sender packs and registers
// its data and advertises the rkey in the RTS; the receiver pulls the
// chunks with RDMA reads at its own pace and acknowledges with a DONE
// message. One handshake hop shorter than RTS/CTS/write/FIN, at the cost
// of the sender packing eagerly (no overlap with the handshake).
//
// Host-memory transfers honour Config.Rendezvous; device-buffer transfers
// always use the GPU transport's put pipeline (as in MVAPICH2, where the
// CUDA path is put-based), except that a device-buffer *receiver* matched
// by a get-RTS pulls into host staging and reuses the eager delivery path.

// RendezvousMode selects the large-message protocol for host buffers.
type RendezvousMode uint8

const (
	// RendezvousPut is RTS → CTS(slots) → RDMA writes → FIN (the default,
	// and the paper's protocol).
	RendezvousPut RendezvousMode = iota
	// RendezvousGet is RTS(rkey) → RDMA reads ← DONE.
	RendezvousGet
)

// Wire messages of the get protocol.
type rtsGetMsg struct {
	Src, Tag, Ctx, Size, SendID int
	Rkey                        uint32
}

type doneMsg struct {
	SendID int
}

// sendHostGet runs the sender side: pack (if needed), register, advertise.
// Completion arrives with the DONE message; cleanup runs in its handler.
func (r *Rank) sendHostGet(q *Request) {
	p := r.Proc()
	var packed mem.Ptr
	temp := false
	if zeroCopy(q.dt, q.count) {
		packed = q.buf // zero-copy: expose the user buffer
	} else {
		packed = r.AllocHost(q.size)
		temp = true
		p.Sleep(r.hostPackCost(q.dt, q.count))
		q.dt.Pack(packed, q.buf, q.count)
	}
	region := r.hca.Register(packed, q.size)
	q.onDone = func() {
		r.hca.Deregister(region)
		if temp {
			r.FreeHost(packed)
		}
		q.CompleteSend()
	}
	r.hca.PostSend(q.peer, rtsGetMsg{r.rank, q.tag, q.ctx, q.size, q.id, region.Rkey}, nil)
}

// recvHostGet pulls the advertised data chunk by chunk. Reads are issued
// back to back; they serialize on the sender's response link, giving the
// same wire utilization as the put pipeline.
func (r *Rank) recvHostGet(p *sim.Proc, q *Request) {
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
		reads = append(reads, r.hca.RDMARead(landing.Add(off), q.peer, q.srcRkey, off, n))
	}
	p.WaitAll(reads...)
	r.hca.PostSend(q.peer, doneMsg{q.peerID}, nil)
	if temp {
		p.Sleep(r.hostPackCost(q.dt, q.count))
		q.dt.Unpack(q.buf, landing, size/q.dt.Size())
		r.FreeHost(landing)
	}
	q.CompleteRecv()
}

// recvDeviceGet serves a get-RTS whose receive buffer lives in device
// memory: pull into pinned host staging, then hand the packed bytes to the
// GPU transport's delivery path (which unpacks on the device and
// completes the request).
func (r *Rank) recvDeviceGet(p *sim.Proc, q *Request) {
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
		reads = append(reads, r.hca.RDMARead(staging.Add(off), q.peer, q.srcRkey, off, n))
	}
	p.WaitAll(reads...)
	r.hca.PostSend(q.peer, doneMsg{q.peerID}, nil)
	packed := append([]byte(nil), staging.Bytes(size)...)
	r.FreeHost(staging)
	r.transport().DeliverFromHost(q, packed)
}

// startRecvGet launches the receiver for a matched get-RTS.
func (r *Rank) startRecvGet(q *Request, from, tag, size, sendID int, rkey uint32) {
	q.setMatched(from, tag, size)
	q.peer = from
	q.peerID = sendID
	q.srcRkey = rkey
	r.w.e.Spawn(fmt.Sprintf("rank%d.getrecv%d", r.rank, q.id), func(p *sim.Proc) {
		if q.buf.IsDevice() {
			r.recvDeviceGet(p, q)
		} else {
			r.recvHostGet(p, q)
		}
	})
}

// dispatchRTSGet handles an arriving get-RTS: match or queue unexpected.
func (r *Rank) dispatchRTSGet(m rtsGetMsg) {
	r.stats.RndvRecvd++
	if q := r.matchPosted(m.Src, m.Tag, m.Ctx); q != nil {
		r.startRecvGet(q, m.Src, m.Tag, m.Size, m.SendID, m.Rkey)
		return
	}
	r.stats.Unexpected++
	r.unexpected = append(r.unexpected, &inbound{
		from: m.Src, tag: m.Tag, ctx: m.Ctx, size: m.Size,
		sendID: m.SendID, isRts: true, isGet: true, rkey: m.Rkey,
	})
	r.notifyArrival()
}
