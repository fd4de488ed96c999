package gpu

import (
	"fmt"

	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// EngineKind identifies one of the device's independent execution engines.
// Fermi-class parts have two DMA copy engines (one per PCIe direction),
// an internal copy path, and the compute engine; transfers on different
// engines proceed concurrently, which is what the paper's pipeline
// exploits.
type EngineKind uint8

const (
	EngineH2D EngineKind = iota
	EngineD2H
	EngineD2D
	EngineKernel
	numEngines
)

func (k EngineKind) String() string {
	switch k {
	case EngineH2D:
		return "h2dEngine"
	case EngineD2H:
		return "d2hEngine"
	case EngineD2D:
		return "d2dEngine"
	case EngineKernel:
		return "kernelEngine"
	default:
		return "engine?"
	}
}

// EngineFor maps a copy direction to the engine that executes it.
func EngineFor(dir CopyDir) EngineKind {
	switch dir {
	case H2D:
		return EngineH2D
	case D2H:
		return EngineD2H
	case D2D:
		return EngineD2D
	default:
		panic("gpu: no engine for direction " + dir.String())
	}
}

// Stats accumulates per-device transfer counters.
type Stats struct {
	Copies     map[CopyDir]int
	Bytes      map[CopyDir]int64
	Kernels    int
	KernelTime sim.Time
}

// Config parameterizes a device.
type Config struct {
	MemBytes int       // device global memory capacity; host cost is paid per allocated byte
	Model    CostModel // cost constants; zero value replaced by DefaultModel
}

// Device is one simulated GPU.
type Device struct {
	id          int
	e           *sim.Engine
	space       *mem.Space
	model       CostModel
	engines     [numEngines]*sim.Resource
	engineTrack [numEngines]string // precomputed obs track names
	stats       counters
	hub         *obs.Hub
}

// counters accumulates what Stats reports, indexed by direction so that
// a copy costs no map update.
type counters struct {
	copies     [H2H + 1]int
	bytes      [H2H + 1]int64
	kernels    int
	kernelTime sim.Time
}

// New creates a device with the given ordinal and configuration.
func New(e *sim.Engine, id int, cfg Config) *Device {
	if cfg.MemBytes <= 0 {
		panic("gpu: MemBytes must be positive")
	}
	model := cfg.Model
	if model.PCIeBandwidth == 0 {
		model = DefaultModel()
	}
	d := &Device{
		id:    id,
		e:     e,
		space: mem.Reserve(mem.Device, fmt.Sprintf("gpu%d", id), id, cfg.MemBytes),
		model: model,
	}
	for k := EngineKind(0); k < numEngines; k++ {
		name := fmt.Sprintf("gpu%d.%s", id, k)
		d.engines[k] = e.NewResource(name, 1)
		d.engineTrack[k] = name
	}
	return d
}

// SetHub attaches an observability hub; each engine occupancy becomes a
// task on the engine's own track ("gpu0.d2hEngine", ...), which is what
// BusyTimeTracer turns into DMA-engine utilization.
func (d *Device) SetHub(h *obs.Hub) { d.hub = h }

// CopyKind maps a copy direction to its obs task kind.
func CopyKind(dir CopyDir) string {
	switch dir {
	case H2D:
		return obs.KindCopyH2D
	case D2H:
		return obs.KindCopyD2H
	case D2D:
		return obs.KindCopyD2D
	default:
		return obs.KindCopyH2H
	}
}

// ID returns the device ordinal.
func (d *Device) ID() int { return d.id }

// Space returns the device's address space.
func (d *Device) Space() *mem.Space { return d.space }

// Model returns the device cost model.
func (d *Device) Model() *CostModel { return &d.model }

// Engine returns the resource serializing work on one engine.
func (d *Device) Engine(k EngineKind) *sim.Resource { return d.engines[k] }

// Stats returns a copy of the accumulated counters. The maps hold the
// directions that have seen at least one copy.
func (d *Device) Stats() Stats {
	cp := Stats{Copies: map[CopyDir]int{}, Bytes: map[CopyDir]int64{}, Kernels: d.stats.kernels, KernelTime: d.stats.kernelTime}
	for dir, n := range d.stats.copies {
		if n > 0 {
			cp.Copies[CopyDir(dir)] = n
			cp.Bytes[CopyDir(dir)] = d.stats.bytes[dir]
		}
	}
	return cp
}

// Alignment is the allocation granularity of device memory. CUDA guarantees
// at least 256-byte alignment from cudaMalloc; we match it so that pitch
// and coalescing behaviour of real code carries over.
const Alignment = 256

// Malloc allocates device memory, like cudaMalloc. Only the n bytes
// handed out are mapped: touching the alignment padding past them, or the
// buffer after Free, panics.
func (d *Device) Malloc(n int) (mem.Ptr, error) {
	return d.space.Alloc(n, Alignment)
}

// MustMalloc allocates or panics; for setup code whose sizes are static.
func (d *Device) MustMalloc(n int) mem.Ptr {
	p, err := d.Malloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Free releases memory returned by Malloc.
func (d *Device) Free(p mem.Ptr) error { return d.space.Free(p) }

// LiveAllocs returns the number of outstanding device allocations.
func (d *Device) LiveAllocs() int { return d.space.Mappings() }

// MemInUse returns the number of allocated device bytes.
func (d *Device) MemInUse() int { return d.space.InUse() }

// CheckAllocator validates the device memory table: it reports the
// corruption that would otherwise surface as a wrong byte far from its
// cause.
func (d *Device) CheckAllocator() error { return d.space.Check() }

// Job is one unit of device work: a (possibly 2D) copy of Shape from Src
// to Dst, or, with Kernel set, a kernel of Cells cells at NsPerCell
// nanoseconds each whose effect on memory is Body. The caller fills the
// exported fields and hands the job to Device.Exec; the device owns it
// until Done runs, and the caller may refill and resubmit it from Done on.
type Job struct {
	Dst, Src  mem.Ptr
	Shape     CopyShape
	Kernel    bool
	Cells     int
	NsPerCell float64
	Body      func()

	// Parent and Chunk tag the engine-occupancy task: it is traced as a
	// child of Parent (typically the cuda stream op) with the pipeline
	// chunk index, so the critical-path analyzer can split a stage's
	// elapsed time into engine queueing (before the engine task starts)
	// and pure transfer work (the engine task itself).
	Parent obs.Span
	Chunk  int

	// Done runs in engine context at the completion instant, after the
	// bytes have landed and the engine has been released.
	Done func()

	d                   *Device
	dir                 CopyDir
	eng                 EngineKind
	cost                sim.Time
	sp                  obs.Span
	start, finish, move func() // bound on the job's first Exec
}

// noEngine marks a host-to-host copy, which occupies no device engine.
const noEngine = numEngines

// Exec runs j as the device's hardware would, advancing by scheduled
// calls rather than in a process: it waits for j's engine, schedules the
// memory effect as a call due at the completion instant, and calls
// j.Done at that instant once the engine is released. Nothing may read
// j's destination before Done.
//
// Exec validates that device pointers belong to this device: a
// cross-device copy (GPU peer-to-peer) is not part of the simulated
// cluster, matching the paper's one-GPU-per-node setup.
func (d *Device) Exec(j *Job) {
	if j.start == nil {
		j.start, j.finish, j.move = j.begin, j.end, j.copyBytes
	}
	j.d = d
	if j.Kernel {
		j.eng = EngineKernel
		j.cost = d.model.KernelCost(j.Cells, j.NsPerCell)
	} else {
		d.checkOwned(j.Dst)
		d.checkOwned(j.Src)
		j.dir = DirOf(j.Dst, j.Src)
		j.cost = d.model.CopyCost(j.dir, j.Shape)
		if j.dir == H2H {
			// Host copies do not occupy a device engine.
			j.eng = noEngine
			j.begin()
			return
		}
		j.eng = EngineFor(j.dir)
	}
	d.engines[j.eng].AcquireThen(j.start)
}

// begin starts the job on its engine: the memory effect is a call due at
// the completion instant — the destination is not readable before then —
// and the completion call takes the next slot after it.
func (j *Job) begin() {
	d := j.d
	at := d.e.Now() + j.cost
	if j.Kernel {
		j.sp = d.hub.StartChild(j.Parent, obs.KindKernel, d.engineTrack[EngineKernel], j.Chunk, j.Cells)
		if j.Body != nil {
			d.e.CallAt(at, j.Body)
		}
	} else {
		if j.eng != noEngine {
			j.sp = d.hub.StartChild(j.Parent, CopyKind(j.dir), d.engineTrack[j.eng], j.Chunk, j.Shape.Bytes())
		}
		d.e.CallAt(at, j.move)
	}
	d.e.CallAt(at, j.finish)
}

// copyBytes is a copy job's memory effect.
func (j *Job) copyBytes() {
	mem.Copy2D(j.Dst, j.Shape.DPitch, j.Src, j.Shape.SPitch, j.Shape.Width, j.Shape.Height)
}

// end completes the job at its completion instant.
func (j *Job) end() {
	d := j.d
	j.sp.End()
	j.sp = obs.Span{}
	if j.eng != noEngine {
		d.engines[j.eng].Release()
	}
	if j.Kernel {
		d.stats.kernels++
		d.stats.kernelTime += j.cost
	} else {
		d.stats.copies[j.dir]++
		d.stats.bytes[j.dir] += int64(j.Shape.Bytes())
	}
	j.Done()
}

func (d *Device) checkOwned(p mem.Ptr) {
	if p.IsDevice() && p.Space() != d.space {
		panic(fmt.Sprintf("gpu%d: pointer %v belongs to another device", d.id, p))
	}
}
