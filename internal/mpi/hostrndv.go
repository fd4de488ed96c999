package mpi

import (
	"mv2sim/internal/datatype"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Host-memory rendezvous. Like the GPU transport's rendezvous pipeline
// (internal/core), each side of a transfer runs as continuations on a
// record from its rank's pool — an hsend, an hrecv, or for the get
// protocol an hget (proto_get.go) — whose steps are the stretches between
// the blocking calls of a protocol process, bound once as method values:
// the process's start becomes CallAt(now, start), p.Sleep(d) becomes
// CallAt(now+d, step), p.Wait(ev) and each Wait of a WaitAll become
// ev.Then(step), and AwaitCTS, AwaitSlot and AwaitFin become their Then
// forms. Each step takes the (time, seq) slot of the process wake-up it
// replaces (see package sim), so the event order, Events() and every
// trace byte are those of the processes, which the package's tests keep
// as a reference.

// hostProtocol runs the host-memory rendezvous helpers for a world:
// records, or in tests the process reference they are checked against.
type hostProtocol interface {
	sendData(q *Request) // put sender, once its RTS is posted
	recvData(q *Request) // put receiver of a matched RTS
	recvGet(q *Request)  // get receiver of a matched get-RTS
}

// records is the hostProtocol of every world: the pooled records.
type records struct{}

// hsend is a put-protocol send from host memory in flight: once the CTS
// has come, each chunk is packed on the CPU into one staging buffer and
// placed in its slot, in chunk order; each chunk's pack overlaps the
// previous chunk's wire time through the async RDMA post. The staging
// buffer is reused, so a chunk is packed only once the HCA has read the
// previous one (local completion). Packing indexes the datatype's cached
// chunk plan, so the per-chunk walk re-derives nothing.
type hsend struct {
	r                    *Rank
	q                    *Request
	total, chunkBytes, c int
	plan                 *datatype.ChunkPlan
	staging              mem.Ptr
	wire                 sim.Event // the current chunk's local completion

	startFn, ctsFn, slotFn, packFn, sentFn func()
	next                                   *hsend
}

func (records) sendData(q *Request) {
	r := q.r
	x := r.sendFree
	if x == nil {
		x = &hsend{r: r}
		x.startFn, x.ctsFn, x.slotFn, x.packFn, x.sentFn = x.start, x.cts, x.gotSlot, x.pack, x.sent
	} else {
		r.sendFree = x.next
		x.next = nil
	}
	x.q = q
	r.w.e.CallAt(r.w.e.Now(), x.startFn)
}

func (x *hsend) start() { x.q.AwaitCTSThen(x.ctsFn) }

func (x *hsend) cts() {
	x.total, x.chunkBytes = x.q.CTSGeometry()
	x.plan = x.q.dt.ChunkPlan(x.q.count, x.chunkBytes)
	x.staging = x.r.AllocHost(x.chunkBytes)
	x.nextChunk()
}

// nextChunk waits for chunk c's slot, or finishes once every chunk is
// placed: the last chunk's local completion has been waited for.
func (x *hsend) nextChunk() {
	if x.c < x.total {
		x.q.AwaitSlotThen(x.c, x.slotFn)
		return
	}
	r, q, staging := x.r, x.q, x.staging
	x.free()
	q.CompleteSend()
	r.FreeHost(staging)
}

func (x *hsend) gotSlot() {
	e := x.r.w.e
	e.CallAt(e.Now()+x.r.hostCopyCost(x.q.Slot(x.c).Len), x.packFn)
}

func (x *hsend) pack() {
	s := x.q.Slot(x.c)
	x.plan.PackRange(x.staging, x.q.buf, x.c*x.chunkBytes, s.Len)
	x.r.RDMAChunkRailInto(&x.wire, x.q, s, x.staging, s.Len, 0, obs.Span{})
	x.wire.Then(x.sentFn)
}

func (x *hsend) sent() {
	x.c++
	x.nextChunk()
}

// free returns the record to its rank's pool.
func (x *hsend) free() {
	r := x.r
	*x = hsend{
		r:       r,
		startFn: x.startFn, ctsFn: x.ctsFn, slotFn: x.slotFn, packFn: x.packFn, sentFn: x.sentFn,
		next: r.sendFree,
	}
	r.sendFree = x
}

// hrecv is a put-protocol receive into host memory in flight. A receive
// into a single-segment (fully contiguous) host buffer is zero-copy: the
// user buffer itself is registered and announced. Otherwise the data
// lands in a temporary packed buffer and is scattered once all chunks
// have arrived. Every slot goes out in one CTS.
type hrecv struct {
	r                *Rank
	q                *Request
	size, total, got int
	landing          mem.Ptr
	temp             bool
	region           ib.Region
	slots            []Slot // kept; the CTS carries it, so it is only rewritten by the next transfer

	startFn, unpackFn func()
	finFn             func(int)
	next              *hrecv
}

func (records) recvData(q *Request) {
	r := q.r
	x := r.recvFree
	if x == nil {
		x = &hrecv{r: r}
		x.startFn, x.finFn, x.unpackFn = x.start, x.fin, x.unpack
	} else {
		r.recvFree = x.next
		x.next = nil
	}
	x.q = q
	r.w.e.CallAt(r.w.e.Now(), x.startFn)
}

func (x *hrecv) start() {
	r, q := x.r, x.q
	x.size = q.matchedSize
	total, chunkBytes := r.w.ChunkGeometry(x.size)
	x.total = total
	if zeroCopy(q.dt, q.count) {
		x.landing = q.buf
	} else {
		x.landing, x.temp = r.AllocHost(x.size), true
	}
	x.region = r.hca.Register(x.landing, x.size)
	if cap(x.slots) < total {
		x.slots = make([]Slot, total)
	}
	x.slots = x.slots[:total]
	for c := range x.slots {
		off := c * chunkBytes
		x.slots[c] = Slot{Chunk: c, Rkey: x.region.Rkey, Off: off, Len: min(chunkBytes, x.size-off)}
	}
	r.SendCTS(q, total, chunkBytes, x.slots, false)
	q.AwaitFinThen(x.finFn)
}

// fin counts one chunk's FIN; after the last the region goes and the
// landing is unpacked, if it is not the user buffer.
func (x *hrecv) fin(int) {
	if x.got++; x.got < x.total {
		x.q.AwaitFinThen(x.finFn)
		return
	}
	r := x.r
	r.hca.Deregister(x.region)
	if x.temp {
		r.w.e.CallAt(r.w.e.Now()+r.hostPackCost(x.q.dt, x.q.count), x.unpackFn)
		return
	}
	x.complete()
}

func (x *hrecv) unpack() {
	q := x.q
	q.dt.Unpack(q.buf, x.landing, x.size/q.dt.Size())
	x.r.FreeHost(x.landing)
	x.complete()
}

func (x *hrecv) complete() {
	r, q := x.r, x.q
	*x = hrecv{
		r: r, slots: x.slots,
		startFn: x.startFn, finFn: x.finFn, unpackFn: x.unpackFn,
		next: r.recvFree,
	}
	r.recvFree = x
	q.CompleteRecv()
}
