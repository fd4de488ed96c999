// Package mpi implements the MPI point-to-point and collective subset the
// paper's evaluation exercises, running on the simulated cluster: tag/source
// message matching with MPI non-overtaking semantics, an eager protocol for
// small messages, an RDMA rendezvous protocol (RTS/CTS/chunked writes/FIN)
// for large ones, non-blocking requests, and binomial-tree collectives.
//
// The package is structured like an MPICH-family library:
//
//   - matching (posted-receive queue + unexpected-message queue) is owned
//     here and is common to all transports;
//   - the host-memory data path (pack → RDMA → unpack) is implemented here,
//     put and get, as continuations on pooled per-rank records;
//   - buffers detected to live in GPU device memory are delegated to a
//     pluggable GPUTransport — internal/core provides the paper's
//     MV2-GPU-NC implementation, and a World without a transport rejects
//     device buffers exactly like a non-CUDA-aware MPI.
//
// Every rank runs as one simulation process, and ranks are the only
// processes: blocking calls (Send, Recv, Wait, Barrier) suspend the rank
// in virtual time while the protocol progresses through engine-context
// handlers and continuations driven by the InfiniBand fabric model.
// Steady-state traffic allocates nothing per message: wire headers come
// from a free list, and the requests of blocking calls are recycled.
package mpi

import (
	"fmt"

	"mv2sim/internal/datatype"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// context IDs: user point-to-point traffic vs internal collectives.
const (
	ctxPt2pt = 0
	ctxColl  = 1
)

// Named defaults for the two tunables the paper sweeps. All non-test code
// must reference these (or a Config field) instead of raw literals; the
// chunkconst analyzer enforces it.
const (
	// DefaultEagerLimit is the eager/rendezvous switch point
	// (MV2_IBA_EAGER_THRESHOLD).
	DefaultEagerLimit = 16 << 10
	// DefaultBlockSize is the GPU pipeline chunk size
	// (MV2_CUDA_BLOCK_SIZE); the paper finds 64 KiB optimal.
	DefaultBlockSize = 64 << 10
	// DefaultRails is the number of independently-serialized HCA rails the
	// rendezvous pipeline stripes chunks across (MV2_NUM_RAILS). The
	// paper's testbed is single-rail.
	DefaultRails = 1
)

// Config holds library tunables, the knobs MVAPICH2 exposes through its
// environment variables.
type Config struct {
	// EagerLimit is the largest packed payload sent eagerly
	// (MV2_IBA_EAGER_THRESHOLD). Default 16 KiB.
	EagerLimit int
	// BlockSize is the pipeline chunk size for GPU rendezvous transfers
	// (MV2_CUDA_BLOCK_SIZE). The paper finds 64 KiB optimal. Default 64 KiB.
	BlockSize int
	// Rails is the number of HCA rails rendezvous chunks stripe across
	// (MV2_NUM_RAILS); it must match the fabric's ib.Model.Rails.
	// Control traffic (eager, RTS, CTS) stays on rail 0 so MPI message
	// ordering is unaffected. Default 1.
	Rails int
	// CallOverhead is the fixed host cost of entering an MPI call.
	CallOverhead sim.Time
	// HostCopyBandwidth and HostCopyBase model CPU memcpy/pack speed.
	HostCopyBandwidth float64
	HostCopyBase      sim.Time
	// HostCopySegment is the extra per-IOV-segment cost of packing
	// non-contiguous host data.
	HostCopySegment sim.Time
	// Rendezvous selects the large-message protocol for host buffers:
	// put-based RTS/CTS/write/FIN (default, the paper's protocol) or the
	// get-based RGET alternative (see proto_get.go).
	Rendezvous RendezvousMode
}

// DefaultConfig returns the Westmere-class host calibration.
func DefaultConfig() Config {
	return Config{
		EagerLimit:        DefaultEagerLimit,
		BlockSize:         DefaultBlockSize,
		Rails:             DefaultRails,
		CallOverhead:      200 * sim.Nanosecond,
		HostCopyBandwidth: 6e9,
		HostCopyBase:      300 * sim.Nanosecond,
		HostCopySegment:   50 * sim.Nanosecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.EagerLimit == 0 {
		c.EagerLimit = d.EagerLimit
	}
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.Rails == 0 {
		c.Rails = DefaultRails
	}
	if c.CallOverhead == 0 {
		c.CallOverhead = d.CallOverhead
	}
	if c.HostCopyBandwidth == 0 {
		c.HostCopyBandwidth = d.HostCopyBandwidth
	}
	if c.HostCopyBase == 0 {
		c.HostCopyBase = d.HostCopyBase
	}
	if c.HostCopySegment == 0 {
		c.HostCopySegment = d.HostCopySegment
	}
	return c
}

// World is the set of communicating ranks (MPI_COMM_WORLD).
type World struct {
	e         *sim.Engine
	cfg       Config
	ranks     []*Rank
	transport GPUTransport
	nextCtx   int // context-ID allocator for Comm.Split (root-driven)
	hub       *obs.Hub
	host      hostProtocol // host-memory rendezvous: records, or a test reference
	freeHdrs  *header      // recycled wire headers, shared by the ranks

	bytes *mem.ByteCounters // where the ranks' host copies are counted; nil: nowhere
}

// SetHub attaches an observability hub: every request's lifetime becomes
// a task on its rank's "rankN.mpi" track (eager/rendezvous/self kinds),
// and the rendezvous control messages (RTS/CTS/FIN) appear as instant
// markers. Install before communication starts.
func (w *World) SetHub(h *obs.Hub) { w.hub = h }

// SetByteCounters makes the ranks count the bytes of their contiguous
// host copies (payload copies of eager delivery and get staging) in c.
func (w *World) SetByteCounters(c *mem.ByteCounters) { w.bytes = c }

// Hub returns the attached observability hub (nil when tracing is off).
// GPU transports use it to parent their pipeline-stage tasks to the
// request tasks recorded here.
func (w *World) Hub() *obs.Hub { return w.hub }

// NewWorld creates an empty world; attach ranks with AddRank.
func NewWorld(e *sim.Engine, cfg Config) *World {
	return &World{e: e, cfg: cfg.withDefaults(), host: records{}}
}

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.e }

// Config returns the library configuration.
func (w *World) Config() Config { return w.cfg }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// SetGPUTransport installs the device-buffer transport (the paper's
// MV2-GPU-NC engine). Without one, passing a device pointer to a
// communication call panics, mirroring a non-CUDA-aware MPI crashing on a
// device pointer.
func (w *World) SetGPUTransport(t GPUTransport) { w.transport = t }

// GPUTransport returns the installed transport, or nil.
func (w *World) GPUTransport() GPUTransport { return w.transport }

// AddRank attaches the next rank, bound to an HCA and a host memory space
// used both for application allocations and the library's internal staging
// buffers. The space must be reserved with nothing mapped (mem.Reserve):
// AllocHost maps what it hands out. The HCA's node ID must equal the new
// rank's index.
func (w *World) AddRank(hca *ib.HCA, host *mem.Space) *Rank {
	r := &Rank{
		w:           w,
		rank:        len(w.ranks),
		hca:         hca,
		host:        host,
		reqs:        map[int]*Request{},
		stats:       &RankStats{},
		obsTrack:    fmt.Sprintf("rank%d.mpi", len(w.ranks)),
		reqName:     fmt.Sprintf("rank%d.req", len(w.ranks)),
		inflightCtr: fmt.Sprintf("rank%d.inflight", len(w.ranks)),
	}
	if hca.Node() != r.rank {
		panic(fmt.Sprintf("mpi: HCA node %d attached as rank %d", hca.Node(), r.rank))
	}
	hca.SetHandler(r.handleMessage)
	w.ranks = append(w.ranks, r)
	return r
}

// Launch spawns fn as the main program of every rank and returns the procs.
// Call e.Run() afterwards to execute the program.
func (w *World) Launch(fn func(r *Rank)) []*sim.Proc {
	procs := make([]*sim.Proc, len(w.ranks))
	for i, r := range w.ranks {
		r := r
		procs[i] = w.e.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			r.proc = p
			fn(r)
		})
	}
	return procs
}

// RankStats counts per-rank protocol activity.
type RankStats struct {
	EagerSent, EagerRecvd int
	RndvSent, RndvRecvd   int
	BytesSent             int64
	Unexpected            int
}

// Rank is one MPI process.
type Rank struct {
	w     *World
	rank  int
	hca   *ib.HCA
	host  *mem.Space
	proc  *sim.Proc
	stats *RankStats

	posted         []*Request   // posted receives, in post order
	unexpected     []inbound    // arrived unmatched, in arrival order
	arrivalWaiters []*sim.Event // blocked Probe calls

	nextID      int
	reqs        map[int]*Request  // in-flight rendezvous requests by ID
	freeReqs    []*Request        // recycled blocking-call requests
	freeFinQs   []*sim.Queue[int] // FIN queues of completed rendezvous receives
	sendFree    *hsend            // idle put senders from host memory (hostrndv.go)
	recvFree    *hrecv            // idle put receivers into host memory
	getFree     *hget             // idle get receivers (proto_get.go)
	scatterFree *hscatter         // idle host eager scatters
	finFree     *nicFIN           // idle FINs of NIC-gathered chunks
	allocReqs   int               // requests allocated, recycled ones not counted
	obsTrack    string            // tracing track name, "rankN.mpi"
	reqName     string            // request event name prefix, "rankN.req"
	inflightCtr string            // in-flight request gauge, "rankN.inflight"
}

// Rank returns this process's rank index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// HCA returns the rank's adapter (used by GPU transports).
func (r *Rank) HCA() *ib.HCA { return r.hca }

// Proc returns the rank's main simulation process. MPI is used
// single-threaded: all blocking calls must come from this process.
func (r *Rank) Proc() *sim.Proc {
	if r.proc == nil {
		panic("mpi: rank used before Launch")
	}
	return r.proc
}

// Stats returns the rank's protocol counters.
func (r *Rank) Stats() RankStats { return *r.stats }

// Wtime returns the current virtual time in seconds (MPI_Wtime).
func (r *Rank) Wtime() float64 { return r.w.e.Now().Seconds() }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.w.e.Now() }

// AllocHost carves n bytes, 64-byte aligned, from the rank's host heap.
// It panics on exhaustion: host memory sizing is a configuration
// decision.
func (r *Rank) AllocHost(n int) mem.Ptr {
	p, err := r.host.Alloc(n, 64)
	if err != nil {
		panic(fmt.Sprintf("mpi rank %d: %v", r.rank, err))
	}
	return p
}

// FreeHost returns memory obtained from AllocHost.
func (r *Rank) FreeHost(p mem.Ptr) {
	if err := r.host.Free(p); err != nil {
		panic(fmt.Sprintf("mpi rank %d: %v", r.rank, err))
	}
}

// callOverhead charges the fixed MPI call entry cost.
func (r *Rank) callOverhead() { r.Proc().Sleep(r.w.cfg.CallOverhead) }

// hostPackCost models CPU gather/scatter of count elements of dt: a base
// cost, per-byte bandwidth, and a per-segment penalty for non-contiguous
// layouts (contiguous types coalesce to a single segment, like a memcpy).
func (r *Rank) hostPackCost(dt *datatype.Datatype, count int) sim.Time {
	bytes := count * dt.Size()
	nseg := dt.SegmentCount(count)
	return r.w.cfg.HostCopyBase +
		sim.Time(int64(nseg)*int64(r.w.cfg.HostCopySegment)) +
		sim.DurationOf(bytes, r.w.cfg.HostCopyBandwidth)
}

// hostCopyCost models one contiguous host memcpy of n bytes.
func (r *Rank) hostCopyCost(n int) sim.Time {
	return r.w.cfg.HostCopyBase + sim.DurationOf(n, r.w.cfg.HostCopyBandwidth)
}

// HostCopyCost exposes the host memcpy cost model to GPU transports, which
// charge it when shuffling packed bytes between pinned staging buffers.
func (r *Rank) HostCopyCost(n int) sim.Time { return r.hostCopyCost(n) }
