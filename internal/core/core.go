// Package core implements MV2-GPU-NC, the paper's contribution: transparent
// high-performance MPI communication of non-contiguous datatypes whose
// buffers live in GPU device memory.
//
// The design follows section IV of the paper:
//
//  1. Datatype processing is offloaded to the GPU. Non-contiguous data is
//     packed inside device memory into a contiguous temporary buffer
//     ("tbuf") using the device's copy engine — cudaMemcpy2DAsync for
//     vector-shaped types, a pack kernel for irregular ones — instead of
//     letting the host gather it row-by-row across PCIe.
//
//  2. The transfer is a five-stage pipeline chunked at a configurable
//     block size (64 KB optimal on the paper's cluster):
//     D2D nc2c pack → D2H stage into a registered host vbuf → RDMA write
//     into the receiver's vbuf → H2D stage into the receiver's tbuf →
//     D2D c2nc unpack into the user buffer. Chunks flow through all five
//     stages concurrently; the RTS is sent while packing is already in
//     progress, overlapping the rendezvous handshake with datatype
//     processing.
//
//  3. The programming model is unchanged: applications pass device
//     pointers and committed MPI datatypes straight to Send/Recv; the
//     library detects device memory (UVA classification on mem.Ptr) and
//     routes the transfer here.
//
// Fully contiguous device transfers skip the pack/unpack stages and
// pipeline directly between the user buffer and the staging vbufs — the
// behaviour of the earlier MVAPICH2-GPU design the paper extends.
package core

import (
	"fmt"

	"mv2sim/internal/cuda"
	"mv2sim/internal/datatype"
	"mv2sim/internal/gpu"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Config holds the transport tunables.
type Config struct {
	// PackMode selects the engine for the sender's stage-1 pack of
	// uniform 2D types; UnpackMode selects it for the receiver's stage-5
	// unpack. The two sides are independent — a transfer may pack with
	// the kernel and unpack with the copy engine. The zero value is
	// PackModeAuto; see packmode.go. The per-byte kernel rate lives in
	// gpu.CostModel.PackKernelNsPerByte.
	PackMode   PackMode
	UnpackMode PackMode

	// HostStagedPack disables the paper's GPU offload for rendezvous
	// transfers of uniform 2D types: data is gathered straight across
	// PCIe with strided D2H copies ("D2H nc2c", the scheme section IV-A
	// rejects) instead of being packed on the device first. An ablation
	// knob; see internal/core/ablation.go.
	HostStagedPack bool

	// Trace, when non-nil, records per-chunk stage completions of every
	// rendezvous transfer routed through this transport — the executable
	// Figure 3. Intended for single-transfer diagnostics.
	Trace *PipelineTrace

	// GPUDirect removes both host-staging stages: the HCA reads and
	// writes registered device memory directly (GPUDirect RDMA, which the
	// paper's 2011 testbed lacked). The fabric must allow device-memory
	// registration (cluster.Config.GPUDirect sets both).
	GPUDirect bool
}

// DefaultConfig returns the default transport configuration: automatic
// pack-engine selection, ablations off.
func DefaultConfig() Config {
	return Config{}
}

// NodeGPU bundles one rank's GPU-side resources: its CUDA context, its
// registered staging pools, and the four streams the pipeline stages run
// on. Send and receive sides stage through SEPARATE vbuf pools: a sender's
// vbufs recycle on local RDMA completion (no remote dependency), so
// senders always make progress and the receiver-holds/sender-needs
// circular wait that a shared pool allows under heavy bidirectional load
// cannot form.
type NodeGPU struct {
	Ctx      *cuda.Ctx
	Pool     *hostmem.Pool // send-side staging
	RecvPool *hostmem.Pool // receive-side landing slots

	// rails is the stripe width: rendezvous chunk c runs its D2H/H2D on
	// stream pair c%rails and its RDMA+FIN on HCA rail c%rails.
	rails        int
	packStream   *cuda.Stream
	d2hStreams   []*cuda.Stream // one per rail
	h2dStreams   []*cuda.Stream // one per rail
	unpackStream *cuda.Stream

	// kernOps counts this transport's pack/unpack kernels in flight on
	// the device (issued, not yet complete). The auto heuristic uses it to
	// tell its own kernel traffic apart from application compute when it
	// samples EngineKernel occupancy: only foreign work forces the
	// copy-engine fallback. Updated in simulation order, so no locking.
	kernOps int
	// kernDoneFn is the kernOps decrement, bound once: a completion
	// callback of every transport kernel.
	kernDoneFn func()

	tracks stageTracks

	eagerFree *eager // recycled eager-path records
}

func (n1 *NodeGPU) kernDone() { n1.kernOps-- }

// stageTracks holds the precomputed per-rank tracing track names — one per
// pipeline stage, and one per rail for the striped middle stages — so the
// traced hot path never formats strings.
type stageTracks struct {
	pack, unpack   string
	d2h, rdma, h2d []string // indexed by rail
}

// railTracks expands a stage's track name per rail. Single-rail keeps the
// historical bare name; multi-rail suffixes every rail (including rail 0)
// so traces never mix a bare track with rail-indexed siblings.
func railTracks(base string, rails int) []string {
	if rails == 1 {
		return []string{base}
	}
	out := make([]string, rails)
	for i := range out {
		out[i] = fmt.Sprintf("%s.r%d", base, i)
	}
	return out
}

// Transport implements mpi.GPUTransport.
type Transport struct {
	cfg   Config
	nodes map[*mpi.Rank]*NodeGPU
	hub   *obs.Hub
}

// SetHub attaches an observability hub: every pipeline stage of every
// chunk becomes a task on its rank's per-stage track ("rank0.pack",
// "rank0.d2h", ..., "rank1.unpack"), parented to the MPI request task.
// cluster.New wires this; direct Transport users without a hub still get
// Config.Trace served through a lazily created internal hub.
func (t *Transport) SetHub(h *obs.Hub) { t.hub = h }

// obsHub returns the tracing hub for transfers. When no cluster-level
// hub was installed but the legacy Config.Trace sink is set, a private
// hub wrapping it is created on first use so PipelineTrace keeps working
// for direct Transport users.
func (t *Transport) obsHub(e *sim.Engine) *obs.Hub {
	if t.hub == nil && t.cfg.Trace != nil {
		t.hub = obs.NewHub(e, t.cfg.Trace)
	}
	return t.hub
}

// New creates an empty transport; attach per-rank GPU resources with
// Attach, then install it with World.SetGPUTransport.
func New(cfg Config) *Transport {
	return &Transport{cfg: cfg, nodes: map[*mpi.Rank]*NodeGPU{}}
}

// Attach binds a rank's CUDA context and staging pools to the transport.
// The rail count comes from the world's MPI config; streams are created in
// pack, d2h(s), h2d(s), unpack order so single-rail clusters get exactly
// the historical stream IDs.
func (t *Transport) Attach(r *mpi.Rank, ctx *cuda.Ctx, sendPool, recvPool *hostmem.Pool) *NodeGPU {
	rails := r.World().Config().Rails
	if rails < 1 {
		rails = 1
	}
	n := &NodeGPU{
		Ctx:        ctx,
		Pool:       sendPool,
		RecvPool:   recvPool,
		rails:      rails,
		packStream: ctx.NewStream(),
		tracks: stageTracks{
			pack:   fmt.Sprintf("rank%d.pack", r.Rank()),
			d2h:    railTracks(fmt.Sprintf("rank%d.d2h", r.Rank()), rails),
			rdma:   railTracks(fmt.Sprintf("rank%d.rdma", r.Rank()), rails),
			h2d:    railTracks(fmt.Sprintf("rank%d.h2d", r.Rank()), rails),
			unpack: fmt.Sprintf("rank%d.unpack", r.Rank()),
		},
	}
	n.kernDoneFn = n.kernDone
	for i := 0; i < rails; i++ {
		n.d2hStreams = append(n.d2hStreams, ctx.NewStream())
	}
	for i := 0; i < rails; i++ {
		n.h2dStreams = append(n.h2dStreams, ctx.NewStream())
	}
	n.unpackStream = ctx.NewStream()
	t.nodes[r] = n
	return n
}

// Node returns the GPU state for a rank.
func (t *Transport) Node(r *mpi.Rank) *NodeGPU {
	n := t.nodes[r]
	if n == nil {
		panic(fmt.Sprintf("core: rank %d has a device buffer but no attached GPU", r.Rank()))
	}
	return n
}

// planFor analyzes the request's datatype once: either a uniform 2D shape
// (answered analytically from the shape canonicalized at Commit) or the
// generic kernel path, which fetches the datatype's cached chunk-aligned
// plan so per-chunk packing re-derives nothing. For uniform shapes it also
// resolves each side's PackMode into a concrete engine choice — made once
// per transfer, before any stage is issued, so the whole pipeline sees one
// consistent decision.
type plan struct {
	size        int
	shape       datatype.Shape2D
	uniform     bool
	contig      bool       // single contiguous region: no pack/unpack stage at all
	packEng     packEngine // stage-1 pipeline engine (engineNic skips the stage)
	unpackEng   packEngine // stage-5 pipeline engine
	packDev     packEngine // device fallback where engineNic has no wire (eager, self-send)
	unpackDev   packEngine
	packTailCut int                 // packed offset where the pack side's tail falls back to memcpy2D (0: never)
	unpackTail  int                 // same for the unpack side
	cp          *datatype.ChunkPlan // set whenever either side leaves the copy engine
}

// packChunkEngine is the device engine packChunk actually runs: the
// pipeline engine, with engineNic resolved to its device fallback —
// packChunk only runs where there is no wire to offload to.
func (pl plan) packChunkEngine() packEngine {
	if pl.packEng == engineNic {
		return pl.packDev
	}
	return pl.packEng
}

func (pl plan) unpackChunkEngine() packEngine {
	if pl.unpackEng == engineNic {
		return pl.unpackDev
	}
	return pl.unpackEng
}

// sgRange lowers the packed byte range [off, off+n) of the request's
// buffer to the NIC gather/scatter descriptor covering it.
func (pl plan) sgRange(req *mpi.Request, off, n int) ib.SGDesc {
	if pl.contig {
		return ib.SGDesc{Buf: req.Buf().Add(pl.shape.Off + off), N: n}
	}
	return ib.SGDesc{Plan: pl.cp, Buf: req.Buf(), Off: off, N: n}
}

func (t *Transport) planFor(req *mpi.Request) plan {
	dt, count := req.Datatype(), req.Count()
	shape, uniform := dt.Uniform2D(count)
	pl := plan{
		size:    req.Size(),
		shape:   shape,
		uniform: uniform,
		contig:  uniform && shape.Rows == 1,
	}
	if pl.size == 0 {
		return pl
	}
	if pl.contig {
		// No pack/unpack stage exists; the engines matter only for an
		// explicit nic pin, which routes the contiguous chunks through
		// the SGE unit as one-entry descriptors. Auto never picks the
		// NIC here — there is nothing to gather.
		if t.cfg.PackMode == PackModeNic {
			pl.packEng, pl.packDev = engineNic, engineCopy
		}
		if t.cfg.UnpackMode == PackModeNic {
			pl.unpackEng, pl.unpackDev = engineNic, engineCopy
		}
		return pl
	}
	blockSize := req.Rank().World().Config().BlockSize
	n1 := t.Node(req.Rank())
	ibm := req.Rank().HCA().Model()
	if !uniform {
		// Irregular types have no 2D shape the copy engine could express:
		// each side packs by kernel or on the NIC.
		pl.cp = dt.ChunkPlan(count, blockSize)
		pl.packEng = t.irregularEngine(t.cfg.PackMode, n1, ibm, pl.cp)
		pl.unpackEng = t.irregularEngine(t.cfg.UnpackMode, n1, ibm, pl.cp)
		pl.packDev, pl.unpackDev = engineKernel, engineKernel
		return pl
	}
	pl.packEng, pl.packDev = t.resolveEngine(t.cfg.PackMode, n1, ibm, shape, pl.size, blockSize)
	pl.unpackEng, pl.unpackDev = t.resolveEngine(t.cfg.UnpackMode, n1, ibm, shape, pl.size, blockSize)
	if pl.packEng != engineCopy || pl.unpackEng != engineCopy {
		pl.cp = dt.ChunkPlan(count, blockSize)
		cut := kernelTailCut(n1.Ctx.Model(), shape, pl.size, blockSize)
		if pl.packChunkEngine() == engineKernel {
			pl.packTailCut = cut
		}
		if pl.unpackChunkEngine() == engineKernel {
			pl.unpackTail = cut
		}
	}
	return pl
}

// kernelTailCut returns the packed-byte offset at which a kernel-packed
// uniform transfer's final short chunk should fall back to the copy
// engine, or 0 to keep every chunk on the kernel. Steady-state chunks
// carry blockSize/width rows — deep enough past the measured crossover
// to amortize the kernel's launch premium — but the tail chunk carries
// only size%blockSize bytes, which can land below the break-even row
// count where memcpy2D wins. The split is only legal when chunk
// boundaries are row-aligned (blockSize a multiple of the row width),
// because the copy-engine path requires row-aligned ranges; irregular
// types never reach here.
func kernelTailCut(m *gpu.CostModel, shape datatype.Shape2D, size, blockSize int) int {
	if size <= blockSize || blockSize%shape.Width != 0 {
		return 0
	}
	tail := size % blockSize
	tailRows := tail / shape.Width
	if tailRows == 0 {
		return 0
	}
	if m.KernelPackBeatsCopy(tailRows, shape.Width, shape.Pitch) {
		return 0
	}
	return size - tail
}

// packByCopy reports whether the pack of the packed range starting at off
// is a row-aligned 2D copy on the copy engine rather than a kernel. A
// kernel-mode transfer still copies its final short chunk when that tail
// is below the kernel/memcpy2D crossover.
func (pl plan) packByCopy(off int) bool {
	return pl.uniform && (pl.packChunkEngine() != engineKernel || (pl.packTailCut > 0 && off >= pl.packTailCut))
}

func (pl plan) unpackByCopy(off int) bool {
	return pl.uniform && (pl.unpackChunkEngine() != engineKernel || (pl.unpackTail > 0 && off >= pl.unpackTail))
}

// rows2D returns the 2D copy of the packed range [off, off+n) of a
// uniform type: the user-buffer offset of its first row, the row width
// and the row count. Callers align off and n to row boundaries.
func (pl plan) rows2D(what string, off, n int) (userOff, w, rows int) {
	w = pl.shape.Width
	if off%w != 0 || n%w != 0 {
		panic(fmt.Sprintf("core: %s range [%d,%d) not row-aligned (width %d)", what, off, off+n, w))
	}
	return pl.shape.Off + off/w*pl.shape.Pitch, w, n / w
}

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

// ---------------------------------------------------------------------------
// Rendezvous sender: the five-stage pipeline, stages 1-3.

// StartRendezvousSend sends the RTS immediately and starts packing before
// the CTS arrives, overlapping the handshake with datatype processing.
func (t *Transport) StartRendezvousSend(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	r.SendRTS(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpusend", r.Rank()), func(p *sim.Proc) {
		h := t.obsHub(e)
		parent := req.ObsSpan()
		size := pl.size
		blockSize := r.World().Config().BlockSize
		// Dispatch: GPUDirect removes the staging stages unless the nic
		// engine owns the pack (the SGE unit already reads device memory
		// in place, staging-free); host-staged keeps its vbuf pipeline and
		// lets the nic engine gather from the vbuf; a nic pack otherwise
		// takes the shortened gather pipeline.
		if t.cfg.GPUDirect && pl.packEng != engineNic {
			t.sendGDR(p, n1, pl, req)
			return
		}
		if hostStagedApplies(t, pl, blockSize) {
			t.sendHostStaged(p, n1, pl, req)
			return
		}
		if pl.packEng == engineNic {
			t.sendNic(p, n1, pl, req)
			return
		}

		// Stage 1: issue all device-side packs up front (row-aligned groups
		// close to the block size for the copy engine, chunk-aligned blocks
		// for the pack kernel), building a contiguous packed tbuf.
		var tbuf mem.Ptr
		var packDone []*sim.Event // packDone[i] covers packed bytes up to packCut[i]
		var packCut []int
		var packSpans []obs.Span // packSpans[i] is packDone[i]'s stage task, for dep edges
		if pl.contig {
			tbuf = req.Buf().Add(pl.shape.Off) // stage straight out of the user buffer
		} else {
			//lint:ignore allocfree freed at the end of this function under the same !pl.contig guard that allocated it; the flow analysis is path-insensitive and cannot correlate the branches
			tbuf = n1.Ctx.MustMalloc(size)
			step := size
			if pl.uniform && pl.packChunkEngine() != engineKernel {
				rows := max(1, blockSize/pl.shape.Width)
				step = rows * pl.shape.Width
			} else if size > blockSize {
				step = blockSize
			}
			for off := 0; off < size; off += step {
				n := min(step, size-off)
				idx := len(packDone)
				sp := h.StartChild(parent, obs.KindPack, n1.tracks.pack, idx, n)
				ev := t.packChunk(p, n1, pl, req, sp, idx, tbuf.Add(off), off, n)
				packDone = append(packDone, ev)
				packCut = append(packCut, off+n)
				packSpans = append(packSpans, sp)
				if sp.Active() {
					ev.OnTrigger(sp.End)
				}
			}
		}
		// packIdx returns the index of the pack whose completion covers all
		// packed bytes below throughByte, or -1 when there is no pack stage.
		packIdx := func(throughByte int) int {
			if pl.contig {
				return -1
			}
			for i, cut := range packCut {
				if cut >= throughByte {
					return i
				}
			}
			return len(packDone) - 1
		}

		// Rendezvous handshake: by now the RTS is long gone; wait for the
		// receiver's chunk geometry.
		total, chunkBytes := req.AwaitCTS(p)
		if chunkBytes != blockSize {
			panic(fmt.Sprintf("core: receiver chunk size %d != configured block size %d", chunkBytes, blockSize))
		}
		if want := (size + chunkBytes - 1) / chunkBytes; total != want {
			panic(fmt.Sprintf("core: receiver announced %d chunks, want %d", total, want))
		}

		// Stages 2-3 per chunk: D2H into a vbuf, RDMA write + FIN, recycle
		// the vbuf at local completion. Chained via completion callbacks so
		// chunk i's RDMA overlaps chunk i+1's D2H and later packs. Chunks
		// stripe round-robin: chunk c stages on D2H stream c%rails and
		// flies on HCA rail c%rails, so with R rails up to R chunks occupy
		// PCIe queues and wires concurrently.
		chunkSent := make([]*sim.Event, total)
		for c := 0; c < total; c++ {
			c := c
			rail := c % n1.rails
			off := c * chunkBytes
			n := min(chunkBytes, size-off)
			slot := req.AwaitSlot(p, c)
			pi := packIdx(off + n)
			if pi >= 0 {
				p.Wait(packDone[pi])
			}
			vbuf := n1.Pool.GetRail(p, rail)
			sent := e.NewEvent(fmt.Sprintf("rank%d.chunk%d.sent", r.Rank(), c))
			chunkSent[c] = sent
			d2hSp := h.StartChild(parent, obs.KindD2H, n1.tracks.d2h[rail], c, n)
			if pi >= 0 {
				d2hSp.DependsOn(packSpans[pi], obs.DepPack)
			}
			d2h := n1.Ctx.MemcpyAsyncTask(p, vbuf.Ptr, tbuf.Add(off), n, n1.d2hStreams[rail], d2hSp, c)
			d2h.OnTrigger(func() {
				d2hSp.End()
				rdmaSp := h.StartChild(parent, obs.KindRDMA, n1.tracks.rdma[rail], c, n)
				rdmaSp.DependsOn(d2hSp, obs.DepStage)
				rdma := r.RDMAChunkRailSpan(req, slot, vbuf.Ptr, n, rail, rdmaSp)
				rdma.OnTrigger(func() {
					rdmaSp.End()
					n1.Pool.Put(vbuf)
					sent.Trigger()
				})
			})
		}
		p.WaitAll(chunkSent...)
		if !pl.contig {
			mustFree(n1.Ctx, tbuf)
		}
		req.CompleteSend()
	})
}

// ---------------------------------------------------------------------------
// Rendezvous receiver: stages 4-5.

// StartRendezvousRecv announces vbuf landing slots (in batches bounded by
// pool availability), then per arriving chunk stages H2D into tbuf and
// unpacks row-aligned groups as their bytes land.
func (t *Transport) StartRendezvousRecv(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpurecv", r.Rank()), func(p *sim.Proc) {
		h := t.obsHub(e)
		parent := req.ObsSpan()
		size := req.Size()
		total, chunkBytes := r.World().ChunkGeometry(size)
		if t.cfg.GPUDirect && pl.unpackEng != engineNic {
			t.recvGDR(p, n1, pl, req)
			return
		}
		if hostStagedApplies(t, pl, chunkBytes) {
			t.recvHostStaged(p, n1, pl, req)
			return
		}
		if pl.unpackEng == engineNic {
			t.recvNic(p, n1, pl, req)
			return
		}
		if chunkBytes != n1.RecvPool.ChunkSize() {
			panic(fmt.Sprintf("core: block size %d != vbuf size %d", chunkBytes, n1.RecvPool.ChunkSize()))
		}

		var tbuf mem.Ptr
		if pl.contig {
			tbuf = req.Buf().Add(pl.shape.Off) // land H2D chunks straight in the user buffer
		} else {
			tbuf = n1.Ctx.MustMalloc(size)
		}

		chunkLen := func(c int) int { return min(chunkBytes, size-c*chunkBytes) }

		// Progressive unpack state: rows are unpacked as soon as all their
		// packed bytes have arrived on the device.
		arrived := 0
		unpackedThrough := 0
		var unpackEvs []*sim.Event
		advanceUnpack := func(trigger obs.Span) {
			if pl.contig {
				return
			}
			// The copy engine unpacks whole rows; the kernel path keeps
			// chunk alignment (arrived only moves in whole chunks), which
			// is what its plan ranges require.
			var cut int
			if pl.uniform && pl.unpackChunkEngine() != engineKernel {
				cut = arrived / pl.shape.Width * pl.shape.Width
			} else {
				cut = arrived
			}
			if cut > unpackedThrough {
				idx := len(unpackEvs)
				sp := h.StartChild(parent, obs.KindUnpack, n1.tracks.unpack, idx, cut-unpackedThrough)
				sp.DependsOn(trigger, obs.DepStage)
				ev := t.unpackChunk(nil, n1, pl, req, sp, idx, tbuf.Add(unpackedThrough), unpackedThrough, cut-unpackedThrough)
				unpackEvs = append(unpackEvs, ev)
				if sp.Active() {
					ev.OnTrigger(sp.End)
				}
				unpackedThrough = cut
			}
		}

		slotVbuf := make([]*hostmem.Vbuf, total)
		announced := 0
		announce := func() {
			// Grab every immediately free receive vbuf (at least one,
			// blocking) and announce the batch in one CTS. Receive vbufs
			// recycle as soon as their chunk's H2D completes, and those
			// H2Ds depend only on remote senders — which stage through
			// their own pool — so this blocking Get always unblocks.
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

		// FINs from different rails may overtake each other, so chunks are
		// processed in arrival order; the progressive unpack only advances
		// over the contiguous prefix of landed chunks.
		h2dDone := make([]*sim.Event, total)
		arrivedChunks := make([]bool, total)
		prefixChunks := 0
		for done := 0; done < total; done++ {
			for announced <= done {
				announce()
			}
			c := req.AwaitFin(p)
			if c < 0 || c >= total || h2dDone[c] != nil {
				panic(fmt.Sprintf("core: bogus FIN for chunk %d", c))
			}
			vbuf := slotVbuf[c]
			n := chunkLen(c)
			off := c * chunkBytes
			rail := c % n1.rails
			h2dSp := h.StartChild(parent, obs.KindH2D, n1.tracks.h2d[rail], c, n)
			ev := n1.Ctx.MemcpyAsyncTask(p, tbuf.Add(off), vbuf.Ptr, n, n1.h2dStreams[rail], h2dSp, c)
			h2dDone[c] = ev
			ev.OnTrigger(func() {
				h2dSp.End()
				n1.RecvPool.Put(vbuf)
				arrivedChunks[c] = true
				for prefixChunks < total && arrivedChunks[prefixChunks] {
					prefixChunks++
				}
				arrived = min(prefixChunks*chunkBytes, size)
				advanceUnpack(h2dSp)
			})
		}
		p.WaitAll(h2dDone...)
		// All bytes are on the device; flush any unpack tail and wait.
		arrived = size
		if !pl.contig {
			if unpackedThrough < size {
				idx := len(unpackEvs)
				sp := h.StartChild(parent, obs.KindUnpack, n1.tracks.unpack, idx, size-unpackedThrough)
				ev := t.unpackChunk(p, n1, pl, req, sp, idx, tbuf.Add(unpackedThrough), unpackedThrough, size-unpackedThrough)
				unpackEvs = append(unpackEvs, ev)
				if sp.Active() {
					ev.OnTrigger(sp.End)
				}
				unpackedThrough = size
			}
			p.WaitAll(unpackEvs...)
			mustFree(n1.Ctx, tbuf)
		}
		req.CompleteRecv()
	})
}

func mustFree(ctx *cuda.Ctx, p mem.Ptr) {
	if err := ctx.Free(p); err != nil {
		panic(err)
	}
}
