package mpi

import (
	"mv2sim/internal/ib"
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

// sendHostGet runs the sender side: pack (if needed), register, advertise.
// Completion arrives with the DONE message; getSent cleans up.
func (r *Rank) sendHostGet(q *Request) {
	p := r.Proc()
	packed := q.buf // zero-copy: expose the user buffer
	if !zeroCopy(q.dt, q.count) {
		packed = r.AllocHost(q.size)
		q.getBuf = packed
		p.Sleep(r.hostPackCost(q.dt, q.count))
		q.dt.Pack(packed, q.buf, q.count)
	}
	q.rkey = r.hca.Register(packed, q.size).Rkey
	r.post(nil, q.peer, header{
		kind: hdrRTSGet, tag: q.tag, ctx: q.ctx, size: q.size,
		sendID: q.id, rkey: q.rkey,
	}, nil, 0)
}

// getSent completes a get send when its DONE arrives: the receiver has
// read everything, so the region and any packed copy go.
func (r *Rank) getSent(q *Request) {
	r.hca.Deregister(ib.Region{Rkey: q.rkey}) // a region is named by its rkey
	if !q.getBuf.IsNil() {
		r.FreeHost(q.getBuf)
	}
	q.CompleteSend()
}

// hget is the receiver of a get rendezvous in flight, on a record from
// its rank's pool (see hostrndv.go). It pulls the advertised data chunk
// by chunk into its landing: reads are issued back to back, serialize on
// the sender's response link, and so use the wire as the put pipeline
// does. Once all have landed it sends DONE. A host receiver unpacks
// unless the landing was its own buffer; a device receiver reads into
// pinned host staging and hands the packed bytes to the GPU transport's
// eager delivery path, which unpacks on the device and completes.
type hget struct {
	r                 *Rank
	q                 *Request
	size, total, wait int
	landing           mem.Ptr
	temp, device      bool
	reads             []sim.Event // by chunk; kept from transfer to transfer

	startFn, readFn, unpackFn func()
	next                      *hget
}

// startRecvGet launches the receiver for a matched get-RTS.
func (r *Rank) startRecvGet(q *Request, from, tag, size, sendID int, rkey uint32) {
	q.setMatched(from, tag, size)
	q.peer = from
	q.peerID = sendID
	q.rkey = rkey
	r.w.host.recvGet(q)
}

func (records) recvGet(q *Request) {
	r := q.r
	x := r.getFree
	if x == nil {
		x = &hget{r: r}
		x.startFn, x.readFn, x.unpackFn = x.start, x.waitReads, x.unpack
	} else {
		r.getFree = x.next
		x.next = nil
	}
	x.q = q
	r.w.e.CallAt(r.w.e.Now(), x.startFn)
}

func (x *hget) start() {
	r, q := x.r, x.q
	x.size, x.device = q.matchedSize, q.buf.IsDevice()
	total, chunkBytes := r.w.ChunkGeometry(x.size)
	if !x.device && zeroCopy(q.dt, q.count) {
		x.landing = q.buf
	} else {
		x.landing, x.temp = r.AllocHost(x.size), true
	}
	if cap(x.reads) < total {
		x.reads = make([]sim.Event, total)
	}
	x.total, x.reads = total, x.reads[:total]
	for c := range x.reads {
		off := c * chunkBytes
		n := min(chunkBytes, x.size-off)
		r.hca.RDMAReadInto(&x.reads[c], x.landing.Add(off), q.peer, q.rkey, off, n)
	}
	x.waitReads()
}

// waitReads waits for the reads in chunk order, then acknowledges.
func (x *hget) waitReads() {
	for ; x.wait < x.total; x.wait++ {
		if ev := &x.reads[x.wait]; !ev.Fired() {
			ev.Then(x.readFn)
			return
		}
	}
	r, q := x.r, x.q
	r.post(nil, q.peer, header{kind: hdrDone, sendID: q.peerID}, nil, 0)
	switch {
	case x.device:
		packed := mem.GetBytes(x.size)
		r.w.bytes.Copy(packed, x.landing.Bytes(x.size))
		r.FreeHost(x.landing)
		x.free()
		r.transport().DeliverFromHost(q, packed)
	case x.temp:
		r.w.e.CallAt(r.w.e.Now()+r.hostPackCost(q.dt, q.count), x.unpackFn)
	default:
		x.free()
		q.CompleteRecv()
	}
}

func (x *hget) unpack() {
	r, q := x.r, x.q
	q.dt.Unpack(q.buf, x.landing, x.size/q.dt.Size())
	r.FreeHost(x.landing)
	x.free()
	q.CompleteRecv()
}

// free returns the record to its rank's pool.
func (x *hget) free() {
	r := x.r
	*x = hget{
		r: r, reads: x.reads,
		startFn: x.startFn, readFn: x.readFn, unpackFn: x.unpackFn,
		next: r.getFree,
	}
	r.getFree = x
}

// dispatchRTSGet handles an arriving get-RTS: match or queue unexpected.
func (r *Rank) dispatchRTSGet(from int, m *header) {
	r.stats.RndvRecvd++
	if q := r.matchPosted(from, m.tag, m.ctx); q != nil {
		r.startRecvGet(q, from, m.tag, m.size, m.sendID, m.rkey)
		return
	}
	r.stats.Unexpected++
	r.unexpected = append(r.unexpected, inbound{
		from: from, tag: m.tag, ctx: m.ctx, size: m.size,
		sendID: m.sendID, isRts: true, isGet: true, rkey: m.rkey,
	})
	r.notifyArrival()
}
