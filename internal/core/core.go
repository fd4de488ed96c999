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
	// knob; see the route table on plan.
	HostStagedPack bool

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
	sendFree  *rsend // recycled rendezvous sender records
	recvFree  *rrecv // recycled rendezvous receiver records
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
// cluster.New wires this from its Config.Tracers.
func (t *Transport) SetHub(h *obs.Hub) { t.hub = h }

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
// resolves each side's PackMode into a concrete engine choice, and for
// every transfer each side's rendezvous route — made once per transfer,
// before any stage is issued, so the whole pipeline sees one consistent
// decision.
//
// Every rendezvous route is the paper's five-stage pipeline (section
// IV-B), pack → D2H → RDMA → H2D → unpack, with stages dropped or
// swapped. Each side takes the first route that applies:
//
//	route        sender                            receiver
//	GPUDirect    pack; RDMA from the device tbuf   registered tbuf; unpack
//	host-staged  2D D2H user → vbuf; RDMA          vbufs; 2D H2D vbuf → user
//	nic          NIC gather over the user buffer   NIC scatter region
//	staged       pack; D2H tbuf → vbuf; RDMA       vbufs; H2D vbuf → tbuf; unpack
//
// Staged is the paper's design. A contiguous type has no pack or unpack
// stage: its tbuf is the user buffer itself.
//
// GPUDirect (cluster.Config.GPUDirect, which also lets the fabric
// register device memory) removes both host-staging stages: the HCA reads
// packed chunks out of the sender's tbuf and writes them into the
// receiver's, announced in one CTS. The paper's 2011 testbed had no
// GPUDirect RDMA, which is why its design stages through pinned vbufs;
// the route measures what that staging costs (what MVAPICH2-GDR stood to
// gain). A side whose engine is nic keeps the nic route: the SGE unit
// already works in place.
//
// Host-staged is the HostStagedPack ablation, for uniform 2D types whose
// rows tile the block: no GPU offload, each chunk is gathered across PCIe
// by a strided D2H into its vbuf ("D2H nc2c", Figure 1(b)) and copied into
// the user buffer by a strided H2D — the strategy section IV-A rejects,
// kept as a library-level A/B of Figure 2's argument. Under a nic pack the
// vbuf goes out as a one-entry NIC descriptor.
//
// Nic (PackMode/UnpackMode nic) has the HCA's scatter/gather unit walk the
// datatype itself (internal/ib/sg.go), so that side runs no pack pass, no
// tbuf and no staging copy: gather → wire → scatter, the shape of
// "Network-Accelerated Non-Contiguous Memory Transfers" (Di Girolamo et
// al.). The SGE unit has its own DMA path to device memory, so no
// GPUDirect fabric is needed. A nic receiver registers the whole packed
// stream as one scatter region, announced in one CTS; a FIN only drains
// the protocol, and the scatter engine's per-chunk upcall completes the
// data.
//
// The two sides pick independently: every sender route writes the same
// packed chunk stream into whatever slots the receiver announced.
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
	send        sendRoute
	recv        recvRoute
}

// sendRoute is the sender's rendezvous route.
type sendRoute struct {
	pack bool     // stage 1 packs into a device tbuf
	d2h  copyKind // stage 2, from the tbuf (1D) or the user buffer (2D)
	wire wireSrc  // what stage 3 puts on the wire
}

// recvRoute is the receiver's rendezvous route.
type recvRoute struct {
	land   landing
	h2d    copyKind // stage 4, into the tbuf (1D) or the user buffer (2D)
	unpack bool     // stage 5 unpacks the tbuf progressively as bytes land
}

// copyKind is a route's host-staging copy between a vbuf and device memory.
type copyKind uint8

const (
	copyNone copyKind = iota
	copy1D            // contiguous, to or from the tbuf
	copy2D            // strided, to or from the user buffer
)

// wireSrc is what a sender route's RDMA stage reads.
type wireSrc uint8

const (
	wireVbuf   wireSrc = iota // RDMA write from the staged vbuf
	wireTbuf                  // RDMA write from the device tbuf
	wireGather                // NIC gather over the user buffer
	wireVbufSG                // one-entry NIC descriptor over the staged vbuf
)

// landing is where a receiver route's chunks arrive.
type landing uint8

const (
	landVbufs   landing = iota // receive vbufs, announced in CTS batches
	landTbuf                   // the device tbuf, registered and announced in one CTS
	landScatter                // a NIC scatter region, announced in one CTS
)

// sentName names the route's per-chunk send-completion event: "rankN."
// then kind, the chunk index and suffix.
func (s sendRoute) sentName() (kind, suffix string) {
	switch {
	case s.wire == wireTbuf:
		return "gdrchunk", ""
	case s.wire == wireGather:
		return "nicchunk", ""
	case s.d2h == copy2D:
		return "hschunk", ""
	}
	return "chunk", ".sent"
}

// route picks each side's rendezvous route from the table above.
func (pl *plan) route(cfg Config, blockSize int) {
	hostStaged := cfg.HostStagedPack && pl.uniform && !pl.contig && pl.size > 0 && blockSize%pl.shape.Width == 0
	switch {
	case cfg.GPUDirect && pl.packEng != engineNic:
		pl.send = sendRoute{pack: !pl.contig, wire: wireTbuf}
	case hostStaged && pl.packEng == engineNic:
		pl.send = sendRoute{d2h: copy2D, wire: wireVbufSG}
	case hostStaged:
		pl.send = sendRoute{d2h: copy2D, wire: wireVbuf}
	case pl.packEng == engineNic:
		pl.send = sendRoute{wire: wireGather}
	default:
		pl.send = sendRoute{pack: !pl.contig, d2h: copy1D, wire: wireVbuf}
	}
	switch {
	case cfg.GPUDirect && pl.unpackEng != engineNic:
		pl.recv = recvRoute{land: landTbuf, unpack: !pl.contig}
	case hostStaged:
		pl.recv = recvRoute{land: landVbufs, h2d: copy2D}
	case pl.unpackEng == engineNic:
		pl.recv = recvRoute{land: landScatter}
	default:
		pl.recv = recvRoute{land: landVbufs, h2d: copy1D, unpack: !pl.contig}
	}
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
	pl := t.engines(req)
	pl.route(t.cfg, req.Rank().World().Config().BlockSize)
	return pl
}

// engines resolves the datatype's shape and each side's engines.
func (t *Transport) engines(req *mpi.Request) plan {
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

func mustFree(ctx *cuda.Ctx, p mem.Ptr) {
	if err := ctx.Free(p); err != nil {
		panic(err)
	}
}
