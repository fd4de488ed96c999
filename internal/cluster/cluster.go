// Package cluster assembles the full simulated testbed of the paper: N
// nodes, each with a host CPU and memory, one Fermi-class GPU, and one QDR
// InfiniBand HCA, wired to an MPI world with the MV2-GPU-NC transport
// installed. It is the single entry point benchmarks, examples and tests
// use to get a ready-to-run system.
package cluster

import (
	"fmt"

	"mv2sim/internal/core"
	"mv2sim/internal/cuda"
	"mv2sim/internal/gpu"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Config sizes the cluster. Zero fields take defaults chosen to match the
// paper's testbed shape at test-friendly memory sizes; experiments that
// need the full 3 GB Tesla C2050 device memory set GPUMemBytes explicitly.
type Config struct {
	// Nodes is the number of cluster nodes (one MPI rank, one GPU each).
	Nodes int
	// GPUMemBytes is each GPU's global memory capacity: the most
	// cudaMalloc can hand out. Host memory is paid only for allocated
	// bytes, so a generous capacity costs nothing. Default 64 MiB.
	GPUMemBytes int
	// HostHeapBytes is each node's host heap capacity for application and
	// library allocations (AllocHost); like GPUMemBytes, only allocated
	// bytes cost host memory. Default 64 MiB.
	HostHeapBytes int
	// Rails is the number of independently-serialized HCA rails per node
	// (MV2_NUM_RAILS): the fabric model and the MPI/transport layers are
	// configured together so rendezvous chunks stripe round-robin over R
	// full-bandwidth links. Default 1 (the paper's single-rail testbed).
	// Setting IBModel.Rails or MPI.Rails individually is rejected: the knob
	// must stay consistent across layers.
	Rails int
	// VbufCount is the number of registered staging chunks per node in
	// EACH of the two pools (one for the send side, one for the receive
	// side — separate pools make the pipeline deadlock-free even when
	// many large transfers cross in both directions, the same reason
	// MVAPICH2 partitions its vbuf credits). Default 64. Each chunk is
	// MPI.BlockSize bytes. Host memory is paid per vbuf first used, not
	// for the whole count: a pool maps a vbuf when it first hands it out.
	VbufCount int
	// GPUModel overrides the GPU cost model (zero value = calibrated
	// defaults).
	GPUModel gpu.CostModel
	// IBModel overrides the fabric cost model.
	IBModel ib.Model
	// MPI carries the MPI-layer tunables (eager limit, block size, ...).
	MPI mpi.Config
	// Core carries the GPU-transport tunables.
	Core core.Config
	// NoGPU builds host-only nodes (no device, no transport); used to test
	// the plain MPI path in isolation.
	NoGPU bool
	// GPUDirect enables GPUDirect RDMA end to end: the fabric accepts
	// device-memory registration and the transport skips host staging.
	// Not available on the paper's 2011 testbed; see internal/core.
	GPUDirect bool
	// Tracers receive task records from every instrumented layer (CUDA
	// streams, IB links, vbuf pools, MPI protocol phases, pipeline stages).
	// Empty means tracing is off and the hot paths take their
	// zero-allocation fast path. A core.PipelineTrace goes here too.
	Tracers []obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.GPUMemBytes == 0 {
		c.GPUMemBytes = 64 << 20
	}
	if c.HostHeapBytes == 0 {
		c.HostHeapBytes = 64 << 20
	}
	if c.VbufCount == 0 {
		c.VbufCount = 64
	}
	if c.Rails == 0 {
		c.Rails = mpi.DefaultRails
	}
	if c.Rails < 1 {
		panic(fmt.Sprintf("cluster: Rails must be >= 1, got %d", c.Rails))
	}
	if (c.IBModel.Rails != 0 && c.IBModel.Rails != c.Rails) ||
		(c.MPI.Rails != 0 && c.MPI.Rails != c.Rails) {
		panic("cluster: set Config.Rails, not IBModel.Rails/MPI.Rails")
	}
	c.IBModel.Rails = c.Rails
	c.MPI.Rails = c.Rails
	return c
}

// Node is one assembled cluster node.
type Node struct {
	Rank *mpi.Rank
	Dev  *gpu.Device
	Ctx  *cuda.Ctx
	// Pool is the send-side staging pool; RecvPool the receive side.
	Pool     *hostmem.Pool
	RecvPool *hostmem.Pool
	// Pinned is the reserved host range both pools carve their vbufs
	// from; while the simulation runs it maps one extent per vbuf ever
	// used, and after Run none.
	Pinned *mem.Space
}

// Cluster is the assembled testbed.
type Cluster struct {
	Engine    *sim.Engine
	Fabric    *ib.Fabric
	World     *mpi.World
	Transport *core.Transport
	Nodes     []*Node
	// Obs is the tracing hub all layers publish to; nil when Config.Tracers
	// is empty, i.e. when tracing is off.
	Obs *obs.Hub

	bytes mem.ByteCounters // every layer's byte work, see ByteCounters
}

// New builds a cluster per cfg.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	e := sim.New()
	if cfg.GPUDirect {
		cfg.IBModel.AllowDeviceRegistration = true
		cfg.Core.GPUDirect = true
	}
	fabric := ib.NewFabric(e, cfg.IBModel)
	world := mpi.NewWorld(e, cfg.MPI)
	cl := &Cluster{Engine: e, Fabric: fabric, World: world}
	fabric.SetByteCounters(&cl.bytes)
	world.SetByteCounters(&cl.bytes)

	if len(cfg.Tracers) > 0 {
		cl.Obs = obs.NewHub(e, cfg.Tracers...)
		fabric.SetHub(cl.Obs)
		world.SetHub(cl.Obs)
	}

	if !cfg.NoGPU {
		cl.Transport = core.New(cfg.Core)
		cl.Transport.SetHub(cl.Obs)
		world.SetGPUTransport(cl.Transport)
	}

	blockSize := world.Config().BlockSize
	for i := 0; i < cfg.Nodes; i++ {
		hca := fabric.NewHCA(i)
		heap := mem.Reserve(mem.Host, fmt.Sprintf("node%d.heap", i), -1, cfg.HostHeapBytes)
		heap.SetByteCounters(&cl.bytes)
		rank := world.AddRank(hca, heap)
		node := &Node{Rank: rank}
		if !cfg.NoGPU {
			node.Dev = gpu.New(e, i, gpu.Config{MemBytes: cfg.GPUMemBytes, Model: cfg.GPUModel})
			node.Dev.Space().SetByteCounters(&cl.bytes)
			node.Ctx = cuda.NewCtx(e, node.Dev)
			pinned := mem.Reserve(mem.Host, fmt.Sprintf("node%d.pinned", i), -1, 2*cfg.VbufCount*blockSize)
			pinned.SetByteCounters(&cl.bytes)
			node.Pinned = pinned
			node.Pool = hostmem.NewPool(e, fmt.Sprintf("node%d.txvbufs", i), hca, pinned.Base(), blockSize, cfg.VbufCount)
			node.RecvPool = hostmem.NewPool(e, fmt.Sprintf("node%d.rxvbufs", i), hca,
				pinned.Base().Add(cfg.VbufCount*blockSize), blockSize, cfg.VbufCount)
			if cl.Obs != nil {
				node.Dev.SetHub(cl.Obs)
				node.Ctx.SetHub(cl.Obs)
				node.Pool.SetHub(cl.Obs)
				node.RecvPool.SetHub(cl.Obs)
			}
			cl.Transport.Attach(rank, node.Ctx, node.Pool, node.RecvPool)
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	return cl
}

// Run launches fn on every rank and executes the simulation to completion.
// When the simulation finishes, the engine is shut down: processes still
// blocked (a deadlocked rank, a server waiting for work) are terminated
// so a discarded cluster, with the device buffers it still maps, becomes
// collectable. The staging pools unmap their vbufs, whose bytes join
// what the run freed in mem's process-wide recycler, where the next
// cluster's mappings and payload buffers find them. The cluster's state
// (device and heap memories, statistics) remains readable, but no
// further simulation can run on it.
func (cl *Cluster) Run(fn func(n *Node)) error {
	byRank := map[*mpi.Rank]*Node{}
	for _, n := range cl.Nodes {
		byRank[n.Rank] = n
	}
	cl.World.Launch(func(r *mpi.Rank) { fn(byRank[r]) })
	err := cl.Engine.Run()
	cl.Engine.Shutdown()
	for _, n := range cl.Nodes {
		for _, p := range []*hostmem.Pool{n.Pool, n.RecvPool} {
			if p == nil {
				continue
			}
			if uerr := p.Unmap(); err == nil {
				err = uerr
			}
		}
	}
	return err
}

// ByteCounters returns the byte work the cluster's layers have done so
// far: the contiguous bytes they copied and the bytes new mappings
// zeroed (mem.ByteCounters). Each cluster counts its own, so clusters
// running at the same time do not mix.
func (cl *Cluster) ByteCounters() mem.ByteCounters { return cl.bytes }

// CheckDeviceLeaks is the end-of-run leak gate: it validates every device
// memory table and reports any allocation still live, a stray mapping
// included. Benchmarks call it after Run, once all device buffers have
// been freed — Free is pure table bookkeeping, so it works after engine
// shutdown and costs no virtual time.
func (cl *Cluster) CheckDeviceLeaks() error {
	for i, n := range cl.Nodes {
		if n.Dev == nil {
			continue
		}
		if err := n.Dev.CheckAllocator(); err != nil {
			return fmt.Errorf("cluster: node %d allocator corrupt: %w", i, err)
		}
		if live := n.Dev.LiveAllocs(); live != 0 {
			return fmt.Errorf("cluster: node %d leaks %d device allocations (%d bytes in use)",
				i, live, n.Dev.MemInUse())
		}
	}
	return nil
}
