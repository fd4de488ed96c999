package mpi

import (
	"encoding/binary"
	"math"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
)

// Collective operations run on each communicator's reserved collective
// context so their traffic can never match application point-to-point
// receives. All collectives are implemented over the same eager/rendezvous
// machinery as user messages, with binomial-tree topologies for rooted
// operations (the algorithms MVAPICH2 uses at these scales) and
// ring/pairwise patterns for the all-to-all family.
//
// The Rank-level methods operate on MPI_COMM_WORLD and delegate to the
// Comm implementations.

// collective tags: tag = collTagBase + operation offset (+ round).
const collTagBase = 1 << 20

// Barrier blocks until every member has entered it (MPI_Barrier), using
// the dissemination algorithm: ceil(log2 n) rounds of zero-byte exchanges.
func (c *Comm) Barrier() {
	n := c.Size()
	if n == 1 {
		c.r.callOverhead()
		return
	}
	empty := c.r.host.Base() // 0-byte transfers never dereference
	round := 0
	for mask := 1; mask < n; mask <<= 1 {
		dst := (c.Rank() + mask) % n
		src := (c.Rank() - mask + n) % n
		c.r.blockingCall(
			posted(empty, 0, datatype.Byte, c.WorldRank(dst), collTagBase+round, c.ctxColl),
			posted(empty, 0, datatype.Byte, c.WorldRank(src), collTagBase+round, c.ctxColl))
		round++
	}
}

// Bcast broadcasts count elements of dt at buf from root to every member
// (MPI_Bcast) along a binomial tree: receive once from the parent at the
// level of the lowest set bit, then fan out to children at lower levels.
func (c *Comm) Bcast(buf mem.Ptr, count int, dt *datatype.Datatype, root int) {
	n := c.Size()
	if n == 1 {
		c.r.callOverhead()
		return
	}
	vrank := (c.Rank() - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % n
			c.recvCollBlocking(buf, count, dt, parent, collTagBase+20)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			c.sendCollBlocking(buf, count, dt, child, collTagBase+20)
		}
	}
}

// sendCollBlocking sends on the collective context and waits for local
// completion, so the caller may reuse buf immediately after.
func (c *Comm) sendCollBlocking(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) {
	c.r.blockingCall(posted(buf, count, dt, c.WorldRank(dest), tag, c.ctxColl), callPart{})
}

// recvCollBlocking receives from communicator rank src on the collective
// context.
func (c *Comm) recvCollBlocking(buf mem.Ptr, count int, dt *datatype.Datatype, src, tag int) {
	c.r.blockingCall(callPart{}, posted(buf, count, dt, c.WorldRank(src), tag, c.ctxColl))
}

// Op is a reduction operator over float64.
type Op func(a, b float64) float64

// Built-in reduction operators (MPI_SUM, MPI_MAX, MPI_MIN, MPI_PROD).
var (
	OpSum  Op = func(a, b float64) float64 { return a + b }
	OpMax  Op = func(a, b float64) float64 { return math.Max(a, b) }
	OpMin  Op = func(a, b float64) float64 { return math.Min(a, b) }
	OpProd Op = func(a, b float64) float64 { return a * b }
)

// Reduce combines count float64 values from every member's sendBuf into
// root's recvBuf using op (MPI_Reduce over MPI_DOUBLE) along a binomial
// tree. recvBuf is only accessed on root. Buffers must be host memory.
func (c *Comm) Reduce(sendBuf, recvBuf mem.Ptr, count int, op Op, root int) {
	n := c.Size()
	nbytes := count * 8
	acc := make([]float64, count)
	readF64(sendBuf, acc)

	vrank := (c.Rank() - root + n) % n
	scratch := make([]float64, count)
	tmp := c.r.AllocHost(maxInt(nbytes, 8))
	defer c.r.FreeHost(tmp)

	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank&^mask + root) % n
			writeF64(tmp, acc)
			c.sendCollBlocking(tmp, count, datatype.Float64, parent, collTagBase+21)
			break
		}
		peer := vrank | mask
		if peer >= n {
			continue
		}
		c.recvCollBlocking(tmp, count, datatype.Float64, (peer+root)%n, collTagBase+21)
		readF64(tmp, scratch)
		for i := range acc {
			acc[i] = op(acc[i], scratch[i])
		}
	}
	if c.Rank() == root {
		writeF64(recvBuf, acc)
	}
}

// Allreduce is Reduce followed by Bcast (MPI_Allreduce over MPI_DOUBLE).
func (c *Comm) Allreduce(sendBuf, recvBuf mem.Ptr, count int, op Op) {
	c.Reduce(sendBuf, recvBuf, count, op, 0)
	c.Bcast(recvBuf, count, datatype.Float64, 0)
}

// Gather collects count elements of dt from every member into root's
// recvBuf, laid out by communicator rank (MPI_Gather). Linear algorithm.
func (c *Comm) Gather(sendBuf mem.Ptr, count int, dt *datatype.Datatype, recvBuf mem.Ptr, root int) {
	if c.Rank() != root {
		c.sendCollBlocking(sendBuf, count, dt, root, collTagBase+22)
		return
	}
	for src := 0; src < c.Size(); src++ {
		dst := recvBuf.Add(src * count * dt.Extent())
		if src == root {
			localTypedCopy(dst, sendBuf, count, dt)
			continue
		}
		c.recvCollBlocking(dst, count, dt, src, collTagBase+22)
	}
}

// Scatter distributes count elements of dt per member from root's sendBuf
// (laid out by communicator rank) into each member's recvBuf (MPI_Scatter).
func (c *Comm) Scatter(sendBuf mem.Ptr, count int, dt *datatype.Datatype, recvBuf mem.Ptr, root int) {
	if c.Rank() != root {
		c.recvCollBlocking(recvBuf, count, dt, root, collTagBase+23)
		return
	}
	for dst := 0; dst < c.Size(); dst++ {
		src := sendBuf.Add(dst * count * dt.Extent())
		if dst == root {
			localTypedCopy(recvBuf, src, count, dt)
			continue
		}
		c.sendCollBlocking(src, count, dt, dst, collTagBase+23)
	}
}

// Allgather gathers count elements from every member into every member's
// recvBuf, laid out by communicator rank (MPI_Allgather), using the ring
// algorithm: n-1 steps, each member forwarding the block it received last.
func (c *Comm) Allgather(sendBuf mem.Ptr, count int, dt *datatype.Datatype, recvBuf mem.Ptr) {
	n := c.Size()
	me := c.Rank()
	block := count * dt.Extent()
	localTypedCopy(recvBuf.Add(me*block), sendBuf, count, dt)
	if n == 1 {
		return
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for step := 0; step < n-1; step++ {
		sendIdx := (me - step + n) % n
		recvIdx := (me - step - 1 + n) % n
		c.Sendrecv(
			recvBuf.Add(sendIdx*block), count, dt, right, collTagBase+24,
			recvBuf.Add(recvIdx*block), count, dt, left, collTagBase+24)
	}
}

// Alltoall exchanges count elements of dt between every pair of members
// (MPI_Alltoall): member i's block j lands in member j's slot i. Pairwise
// exchange algorithm: n rounds with partner me XOR-shifted.
func (c *Comm) Alltoall(sendBuf mem.Ptr, count int, dt *datatype.Datatype, recvBuf mem.Ptr) {
	n := c.Size()
	me := c.Rank()
	block := count * dt.Extent()
	localTypedCopy(recvBuf.Add(me*block), sendBuf.Add(me*block), count, dt)
	for step := 1; step < n; step++ {
		partner := (me + step) % n
		from := (me - step + n) % n
		c.Sendrecv(
			sendBuf.Add(partner*block), count, dt, partner, collTagBase+25,
			recvBuf.Add(from*block), count, dt, from, collTagBase+25)
	}
}

// localTypedCopy moves count typed elements within this process via the
// pack/unpack identity (no wire traffic).
func localTypedCopy(dst, src mem.Ptr, count int, dt *datatype.Datatype) {
	tmp := make([]byte, count*dt.Size())
	dt.PackBytes(tmp, src, count)
	dt.UnpackBytes(dst, tmp, count)
}

// ---------------------------------------------------------------------------
// World-communicator convenience wrappers on Rank.

// Barrier is MPI_Barrier on MPI_COMM_WORLD.
func (r *Rank) Barrier() { r.Comm().Barrier() }

// Bcast is MPI_Bcast on MPI_COMM_WORLD.
func (r *Rank) Bcast(buf mem.Ptr, count int, dt *datatype.Datatype, root int) {
	r.Comm().Bcast(buf, count, dt, root)
}

// Reduce is MPI_Reduce on MPI_COMM_WORLD.
func (r *Rank) Reduce(sendBuf, recvBuf mem.Ptr, count int, op Op, root int) {
	r.Comm().Reduce(sendBuf, recvBuf, count, op, root)
}

// Allreduce is MPI_Allreduce on MPI_COMM_WORLD.
func (r *Rank) Allreduce(sendBuf, recvBuf mem.Ptr, count int, op Op) {
	r.Comm().Allreduce(sendBuf, recvBuf, count, op)
}

// Gather is MPI_Gather on MPI_COMM_WORLD.
func (r *Rank) Gather(sendBuf mem.Ptr, count int, dt *datatype.Datatype, recvBuf mem.Ptr, root int) {
	r.Comm().Gather(sendBuf, count, dt, recvBuf, root)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// readF64 and writeF64 convert between simulated memory and Go float64
// slices using the cluster's little-endian layout.
func readF64(p mem.Ptr, out []float64) {
	b := p.Bytes(len(out) * 8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

func writeF64(p mem.Ptr, in []float64) {
	b := p.Bytes(len(in) * 8)
	for i, v := range in {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
}
