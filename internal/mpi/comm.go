package mpi

import (
	"fmt"
	"sort"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
)

// Comm is a communicator: an ordered group of ranks with an isolated
// matching context, like MPI_Comm. Each member holds its own *Comm value
// (communicators are process-local handles in MPI too).
//
// Point-to-point and collective traffic on different communicators can
// never match each other: each communicator owns two context IDs, one for
// application point-to-point traffic and one for its collectives.
type Comm struct {
	r       *Rank
	ctxP2P  int
	ctxColl int
	members []int // world ranks, indexed by communicator rank
	myRank  int   // this process's rank within the communicator
}

// Comm returns this process's handle for MPI_COMM_WORLD.
func (r *Rank) Comm() *Comm {
	members := make([]int, len(r.w.ranks))
	for i := range members {
		members[i] = i
	}
	return &Comm{r: r, ctxP2P: ctxPt2pt, ctxColl: ctxColl, members: members, myRank: r.rank}
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.members) {
		panic(fmt.Sprintf("mpi: rank %d outside communicator of size %d", commRank, len(c.members)))
	}
	return c.members[commRank]
}

// commRankOf translates a world rank to a communicator rank (-1 if not a
// member).
func (c *Comm) commRankOf(world int) int {
	for i, w := range c.members {
		if w == world {
			return i
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Point-to-point on a communicator

// Send is MPI_Send on this communicator; dest is a communicator rank.
func (c *Comm) Send(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) {
	c.r.blockingCall(c.sendPart(buf, count, dt, dest, tag), callPart{})
}

// Recv is MPI_Recv on this communicator; source may be AnySource.
func (c *Comm) Recv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) Status {
	return c.r.blockingCall(callPart{}, c.recvPart(buf, count, dt, source, tag))
}

// sendPart is a send to communicator rank dest, in world ranks: a
// ProcNull dest costs no call.
func (c *Comm) sendPart(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) callPart {
	if dest == ProcNull {
		return callPart{kind: partNull}
	}
	return posted(buf, count, dt, c.WorldRank(dest), tag, c.ctxP2P)
}

// recvPart is a receive from communicator rank source, in world ranks,
// which may be AnySource: a ProcNull source costs no call.
func (c *Comm) recvPart(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) callPart {
	if source == ProcNull {
		return callPart{kind: partNull}
	}
	src := AnySource
	if source != AnySource {
		src = c.WorldRank(source)
	}
	return posted(buf, count, dt, src, tag, c.ctxP2P)
}

// Isend is MPI_Isend on this communicator. dest may be ProcNull.
func (c *Comm) Isend(buf mem.Ptr, count int, dt *datatype.Datatype, dest, tag int) *Request {
	p := c.sendPart(buf, count, dt, dest, tag)
	if p.kind == partNull {
		return c.r.nullRequest(SendReq)
	}
	return c.r.isend(p.buf, p.count, p.dt, p.peer, p.tag, p.ctx)
}

// Irecv is MPI_Irecv on this communicator. source may be ProcNull or
// AnySource.
func (c *Comm) Irecv(buf mem.Ptr, count int, dt *datatype.Datatype, source, tag int) *Request {
	p := c.recvPart(buf, count, dt, source, tag)
	if p.kind == partNull {
		return c.r.nullRequest(RecvReq)
	}
	return c.r.irecv(p.buf, p.count, p.dt, p.peer, p.tag, p.ctx)
}

// Sendrecv is MPI_Sendrecv on this communicator.
func (c *Comm) Sendrecv(
	sendBuf mem.Ptr, sendCount int, sendType *datatype.Datatype, dest, sendTag int,
	recvBuf mem.Ptr, recvCount int, recvType *datatype.Datatype, source, recvTag int,
) Status {
	return c.r.blockingCall(
		c.sendPart(sendBuf, sendCount, sendType, dest, sendTag),
		c.recvPart(recvBuf, recvCount, recvType, source, recvTag))
}

// ---------------------------------------------------------------------------
// Split

// Split partitions the communicator (MPI_Comm_split): members with equal
// color form a new communicator, ordered by (key, old rank). color < 0
// (MPI_UNDEFINED) yields a nil communicator for that caller.
//
// Split is collective: every member must call it. Rank 0 of the parent
// gathers (color, key) pairs, assigns fresh context IDs, and broadcasts
// the assignment, so all members agree on membership and contexts.
func (c *Comm) Split(color, key int) *Comm {
	n := c.Size()
	me := c.Rank()
	// Gather (color, key) to parent rank 0 over the collective context.
	pairs := make([][2]int, n)
	if me == 0 {
		pairs[0] = [2]int{color, key}
		buf := c.r.AllocHost(16)
		for src := 1; src < n; src++ {
			st := c.r.recvColl(buf, 16, c, AnySource, collTagBase+10)
			from := c.commRankOf(st.Source)
			pairs[from] = [2]int{readInt(buf, 0), readInt(buf, 8)}
		}
		c.r.FreeHost(buf)
	} else {
		buf := c.r.AllocHost(16)
		writeInt(buf, 0, color)
		writeInt(buf, 8, key)
		c.r.sendColl(buf, 16, c, 0, collTagBase+10)
		c.r.FreeHost(buf)
	}

	// Rank 0 computes groups and context IDs, then broadcasts:
	// layout per member: [newCtxP2P, newCtxColl, newSize, members...].
	const maxGroup = 1024
	plan := c.r.AllocHost((3 + maxGroup) * 8)
	defer c.r.FreeHost(plan)
	var newComm *Comm
	if me == 0 {
		// Group members by color, order by (key, old rank).
		groups := map[int][]int{}
		for oldRank, p := range pairs {
			if p[0] < 0 {
				continue
			}
			groups[p[0]] = append(groups[p[0]], oldRank)
		}
		colors := make([]int, 0, len(groups))
		for col := range groups {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		ctxByColor := map[int][2]int{}
		for _, col := range colors {
			g := groups[col]
			sort.SliceStable(g, func(i, j int) bool {
				if pairs[g[i]][1] != pairs[g[j]][1] {
					return pairs[g[i]][1] < pairs[g[j]][1]
				}
				return g[i] < g[j]
			})
			groups[col] = g
			ctxByColor[col] = [2]int{c.r.w.allocCtx(), c.r.w.allocCtx()}
		}
		// Send each member its plan (and build rank 0's own).
		for oldRank := n - 1; oldRank >= 0; oldRank-- {
			p := pairs[oldRank]
			var group []int
			var ctxs [2]int
			if p[0] >= 0 {
				group = groups[p[0]]
				ctxs = ctxByColor[p[0]]
			}
			if len(group) > maxGroup {
				panic("mpi: Split group exceeds plan buffer")
			}
			writeInt(plan, 0, ctxs[0])
			writeInt(plan, 8, ctxs[1])
			writeInt(plan, 16, len(group))
			for i, g := range group {
				writeInt(plan, 24+8*i, c.members[g]) // world ranks
			}
			if oldRank == 0 {
				newComm = c.buildFromPlan(plan)
				continue
			}
			c.r.sendColl(plan, (3+len(group))*8, c, oldRank, collTagBase+11)
		}
	} else {
		c.r.recvColl(plan, (3+maxGroup)*8, c, 0, collTagBase+11)
		newComm = c.buildFromPlan(plan)
	}
	return newComm
}

// buildFromPlan decodes a Split plan buffer into this process's handle.
func (c *Comm) buildFromPlan(plan mem.Ptr) *Comm {
	size := readInt(plan, 16)
	if size == 0 {
		return nil // MPI_COMM_NULL
	}
	nc := &Comm{
		r:       c.r,
		ctxP2P:  readInt(plan, 0),
		ctxColl: readInt(plan, 8),
		members: make([]int, size),
		myRank:  -1,
	}
	for i := 0; i < size; i++ {
		nc.members[i] = readInt(plan, 24+8*i)
		if nc.members[i] == c.r.rank {
			nc.myRank = i
		}
	}
	if nc.myRank < 0 {
		panic("mpi: Split plan does not contain the caller")
	}
	return nc
}

// Dup duplicates the communicator with fresh contexts (MPI_Comm_dup).
// Collective over the members.
func (c *Comm) Dup() *Comm {
	return c.Split(0, c.Rank())
}

// allocCtx hands out a fresh context ID pair element. Only called by the
// Split root, which distributes the result, so all members stay agreed.
func (w *World) allocCtx() int {
	if w.nextCtx == 0 {
		w.nextCtx = 2 // 0 and 1 are the world contexts
	}
	w.nextCtx++
	return w.nextCtx
}

// sendColl/recvColl are internal fixed-size byte exchanges on a
// communicator's collective context.
func (r *Rank) sendColl(buf mem.Ptr, n int, c *Comm, dest, tag int) {
	r.blockingCall(posted(buf, n, datatype.Byte, c.WorldRank(dest), tag, c.ctxColl), callPart{})
}

func (r *Rank) recvColl(buf mem.Ptr, n int, c *Comm, source, tag int) Status {
	src := source
	if source != AnySource {
		src = c.WorldRank(source)
	}
	return r.blockingCall(callPart{}, posted(buf, n, datatype.Byte, src, tag, c.ctxColl))
}

func readInt(p mem.Ptr, off int) int {
	b := p.Add(off).Bytes(8)
	v := uint64(0)
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return int(int64(v))
}

func writeInt(p mem.Ptr, off, v int) {
	b := p.Add(off).Bytes(8)
	u := uint64(int64(v))
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}
