package gpu

import (
	"fmt"

	"mv2sim/internal/alloc"

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
	e           sim.Engine
	space       *mem.Space
	alloc       *alloc.Allocator
	model       CostModel
	engines     [numEngines]*sim.Resource
	engineTrack [numEngines]string // precomputed obs track names
	stats       Stats
	hub         *obs.Hub
}

// New creates a device with the given ordinal and configuration.
func New(e sim.Engine, id int, cfg Config) *Device {
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
		alloc: newAllocator(cfg.MemBytes),
		model: model,
		stats: Stats{Copies: map[CopyDir]int{}, Bytes: map[CopyDir]int64{}},
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

// Stats returns a copy of the accumulated counters.
func (d *Device) Stats() Stats {
	cp := Stats{Copies: map[CopyDir]int{}, Bytes: map[CopyDir]int64{}, Kernels: d.stats.Kernels, KernelTime: d.stats.KernelTime}
	for k, v := range d.stats.Copies {
		cp.Copies[k] = v
	}
	for k, v := range d.stats.Bytes {
		cp.Bytes[k] = v
	}
	return cp
}

// Malloc allocates device memory, like cudaMalloc. Only the n bytes
// handed out are mapped: touching the alignment padding past them, or the
// buffer after Free, panics.
func (d *Device) Malloc(n int) (mem.Ptr, error) {
	off, err := d.alloc.Alloc(n)
	if err != nil {
		return mem.Ptr{}, err
	}
	return d.space.Map(off, n), nil
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
func (d *Device) Free(p mem.Ptr) error {
	if p.Space() != d.space {
		return fmt.Errorf("gpu%d: free of foreign pointer %v", d.id, p)
	}
	if err := d.alloc.Free(p.Offset()); err != nil {
		return err
	}
	d.space.Unmap(p.Offset())
	return nil
}

// LiveAllocs returns the number of outstanding device allocations.
func (d *Device) LiveAllocs() int { return d.alloc.LiveCount() }

// MemInUse returns the number of allocated device bytes.
func (d *Device) MemInUse() int { return d.alloc.InUse() }

// CheckAllocator validates allocator invariants (tests only).
func (d *Device) CheckAllocator() error { return d.alloc.CheckInvariants() }

// ExecCopy occupies the engine for dir, sleeps the modeled duration, then
// moves the actual bytes. It must be called from a simulation process; the
// bytes become visible at the completion instant, which is also when any
// completion event should be triggered by the caller.
//
// ExecCopy validates that device pointers belong to this device: a
// cross-device copy (GPU peer-to-peer) is not part of the simulated
// cluster, matching the paper's one-GPU-per-node setup.
func (d *Device) ExecCopy(p *sim.Proc, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int) {
	d.ExecCopyTask(p, obs.Span{}, -1, dst, dpitch, src, spitch, width, height)
}

// ExecCopyTask is ExecCopy with the engine-occupancy task parented to an
// enclosing span (typically the cuda stream op) and tagged with a pipeline
// chunk index, so the critical-path analyzer can split a stage's elapsed
// time into engine-queueing (before the engine task starts) and pure
// transfer work (the engine task itself).
func (d *Device) ExecCopyTask(p *sim.Proc, parent obs.Span, chunk int, dst mem.Ptr, dpitch int, src mem.Ptr, spitch, width, height int) {
	d.checkOwned(dst)
	d.checkOwned(src)
	dir := DirOf(dst, src)
	shape := CopyShape{Width: width, Height: height, DPitch: dpitch, SPitch: spitch}
	cost := d.model.CopyCost(dir, shape)
	if dir == H2H {
		// Host copies do not occupy a device engine. The byte movement is a
		// task due at the copy's completion instant: the destination is not
		// readable before then, so the parallel engine may overlap it with
		// dispatch while the serial engine runs it at the same slot.
		d.e.TaskAt(d.e.Now()+cost, func() {
			mem.Copy2D(dst, dpitch, src, spitch, width, height)
		})
		p.Sleep(cost)
	} else {
		k := EngineFor(dir)
		eng := d.engines[k]
		eng.Acquire(p)
		sp := d.hub.StartChild(parent, CopyKind(dir), d.engineTrack[k], chunk, shape.Bytes())
		d.e.TaskAt(d.e.Now()+cost, func() {
			mem.Copy2D(dst, dpitch, src, spitch, width, height)
		})
		p.Sleep(cost)
		sp.End()
		eng.Release()
	}
	d.stats.Copies[dir]++
	d.stats.Bytes[dir] += int64(shape.Bytes())
}

// ExecKernel occupies the compute engine for the kernel's modeled duration
// and then runs body, which performs the kernel's real effect on memory.
func (d *Device) ExecKernel(p *sim.Proc, cells int, nsPerCell float64, body func()) {
	d.ExecKernelTask(p, obs.Span{}, -1, cells, nsPerCell, body)
}

// ExecKernelTask is ExecKernel with the engine-occupancy task parented and
// chunk-tagged like ExecCopyTask.
func (d *Device) ExecKernelTask(p *sim.Proc, parent obs.Span, chunk, cells int, nsPerCell float64, body func()) {
	cost := d.model.KernelCost(cells, nsPerCell)
	eng := d.engines[EngineKernel]
	eng.Acquire(p)
	sp := d.hub.StartChild(parent, obs.KindKernel, d.engineTrack[EngineKernel], chunk, cells)
	if body != nil {
		// The kernel's memory effect is due at the kernel's completion
		// instant; nothing may read its output before the stream op's done
		// event, which fires after this slot.
		d.e.TaskAt(d.e.Now()+cost, body)
	}
	p.Sleep(cost)
	sp.End()
	eng.Release()
	d.stats.Kernels++
	d.stats.KernelTime += cost
}

func (d *Device) checkOwned(p mem.Ptr) {
	if p.IsDevice() && p.Space() != d.space {
		panic(fmt.Sprintf("gpu%d: pointer %v belongs to another device", d.id, p))
	}
}
