// Package hostmem manages the pinned (registered) host staging memory
// MVAPICH2 uses for GPU communication: a pool of fixed-size "vbuf" chunks,
// pre-registered with the HCA so that RDMA operations can target them
// directly, handed out to in-flight pipeline stages and recycled on
// completion.
//
// The pool is a hard resource: when every vbuf is in flight, requesters
// block until one is returned. That back-pressure bounds pipeline depth,
// which is exactly the behaviour the vbuf-pool ablation benchmark
// measures.
//
// The pool's address range is reserved up front, but host memory is paid
// per vbuf: a vbuf is mapped and registered the first time it is handed
// out, the way MVAPICH2 grows its registered vbuf pool on demand
// (MV2_VBUF_SECONDARY_POOL_SIZE). Since the free list is LIFO, a run maps
// only as many vbufs as it ever held at once. When the simulation ends,
// Unmap hands their bytes back to mem's recycler.
package hostmem

import (
	"fmt"

	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Vbuf is one registered staging chunk.
type Vbuf struct {
	// Ptr addresses the chunk's bytes in host memory.
	Ptr mem.Ptr
	// Region is the chunk's RDMA registration with the owning node's HCA,
	// made when the vbuf is first handed out.
	Region ib.Region
	// Index is the chunk's position in the pool, for diagnostics.
	Index int

	pool   *Pool
	free   bool
	mapped bool     // Ptr is mapped and Region registered
	span   obs.Span // open while the vbuf is held
}

// Pool is a fixed set of vbufs carved from one reserved pinned host range.
type Pool struct {
	e         *sim.Engine
	hca       *ib.HCA
	name      string
	chunkSize int
	bufs      []*Vbuf
	freeList  []*Vbuf
	waiters   []*sim.Event

	gets, puts uint64
	minFree    int

	// held counts vbufs currently out of the pool; maxHeld is its
	// high-water mark over the run — how deep the pipeline dug into the
	// pool at its most concurrent. waits counts exhaustion events: Get
	// calls that found the pool empty and had to block.
	held, maxHeld int
	waits         uint64
	mapped        int // vbufs mapped so far

	// railGets[r] counts vbufs handed out to rail r's chunk stream. It
	// grows lazily with the highest rail index seen, so single-rail runs
	// pay one entry.
	railGets []uint64

	hub       *obs.Hub
	freeCtr   string // occupancy gauge name
	waitsCtr  string // cumulative exhaustion-wait gauge name
	waitTrack string // track for pool-exhaustion wait tasks
	vbufEvent string // name of the event a blocked Get waits on; set on first wait
}

// NewPool carves count chunks of chunkSize bytes out of the host space at
// base. The range base..base+count*chunkSize must be reserved and
// unmapped (mem.Reserve): each chunk is mapped and registered with hca
// the first time the pool hands it out.
func NewPool(e *sim.Engine, name string, hca *ib.HCA, base mem.Ptr, chunkSize, count int) *Pool {
	if chunkSize <= 0 || count <= 0 {
		panic("hostmem: pool dimensions must be positive")
	}
	if base.IsDevice() {
		panic("hostmem: vbuf pool must live in host memory")
	}
	base.Add(count * chunkSize) // bounds-check the whole range now
	p := &Pool{e: e, hca: hca, name: name, chunkSize: chunkSize, minFree: count,
		freeCtr: name + ".free", waitsCtr: name + ".waits", waitTrack: name + ".wait"}
	for i := 0; i < count; i++ {
		v := &Vbuf{Ptr: base.Add(i * chunkSize), Index: i, pool: p, free: true}
		p.bufs = append(p.bufs, v)
		p.freeList = append(p.freeList, v)
	}
	return p
}

// SetHub attaches an observability hub: each vbuf hold (Get→Put) becomes
// a task on the pool's track, and the free count is sampled as a gauge
// ("<pool>.free") on every state change — the pool-occupancy view of how
// deep the pipeline runs.
func (p *Pool) SetHub(h *obs.Hub) { p.hub = h }

// ChunkSize returns the size of each vbuf in bytes.
func (p *Pool) ChunkSize() int { return p.chunkSize }

// Count returns the total number of vbufs.
func (p *Pool) Count() int { return len(p.bufs) }

// Free returns the number of currently available vbufs.
func (p *Pool) Free() int { return len(p.freeList) }

// MinFree returns the low-water mark of available vbufs over the run,
// i.e. how deep the pipeline actually dug into the pool.
func (p *Pool) MinFree() int { return p.minFree }

// Mapped returns the number of times a vbuf was mapped and registered:
// the distinct vbufs ever handed out, counted again for each one mapped
// afresh after Unmap.
func (p *Pool) Mapped() int { return p.mapped }

// Get blocks until a vbuf is available and returns it, accounted to
// rail 0. It is for process code — the GPU transport's process
// references in internal/core's tests; the transport itself waits with
// GetThen.
func (p *Pool) Get(proc *sim.Proc) *Vbuf {
	return p.GetRail(proc, 0)
}

// GetRail is Get with the hold accounted to the given pipeline rail (for
// process code, like Get; the transport uses GetRailThen). When
// the pool is exhausted, the blocked interval is traced as a vbuf_wait
// task on "<pool>.wait", and the eventual hold records an explicit
// dependency edge on it — the signal the critical-path analyzer uses to
// attribute pipeline stall to pool back-pressure rather than handshaking.
func (p *Pool) GetRail(proc *sim.Proc, rail int) *Vbuf {
	var waitSp obs.Span
	blocked := false
	for len(p.freeList) == 0 {
		proc.Wait(p.await(&waitSp, &blocked))
	}
	return p.granted(rail, waitSp)
}

// GetThen is Get for a continuation in engine context: fn receives a
// vbuf accounted to rail 0 — at once when one is free, otherwise in the
// slot where a process blocked in Get would resume. A blocked GetThen
// waits on the same "<pool>.vbuf" events, counts the same exhaustion
// wait and traces the same vbuf_wait span as Get.
func (p *Pool) GetThen(fn func(*Vbuf)) { p.GetRailThen(0, fn) }

// GetRailThen is GetRail for a continuation, like GetThen.
func (p *Pool) GetRailThen(rail int, fn func(*Vbuf)) {
	if len(p.freeList) > 0 {
		fn(p.granted(rail, obs.Span{}))
		return
	}
	g := &getter{p: p, rail: rail, fn: fn}
	g.retryFn = g.retry
	g.retry()
}

// getter is a blocked GetRailThen: the state GetRail keeps on its stack.
type getter struct {
	p       *Pool
	rail    int
	fn      func(*Vbuf)
	waitSp  obs.Span
	blocked bool
	retryFn func()
}

// retry runs when the vbuf event a getter waits on fires. Like GetRail's
// loop, it waits again if another requester took the returned vbuf first.
func (g *getter) retry() {
	if len(g.p.freeList) == 0 {
		g.p.await(&g.waitSp, &g.blocked).Then(g.retryFn)
		return
	}
	g.fn(g.p.granted(g.rail, g.waitSp))
}

// await registers one more wait of a Get that found the pool empty and
// returns the event the next Put fires. The first wait of a Get counts
// one exhaustion event and opens its wait span.
func (p *Pool) await(waitSp *obs.Span, blocked *bool) *sim.Event {
	if !*blocked {
		// One exhaustion event per blocked Get, however many times the
		// pool drains again before this requester wins a vbuf.
		*blocked = true
		p.waits++
		p.hub.Counter(p.waitsCtr, float64(p.waits))
	}
	if !waitSp.Active() {
		*waitSp = p.hub.Start(obs.KindVbufWait, p.waitTrack, -1, p.chunkSize)
	}
	if p.vbufEvent == "" {
		p.vbufEvent = p.name + ".vbuf"
	}
	ev := p.e.NewEvent(p.vbufEvent)
	p.waiters = append(p.waiters, ev)
	return ev
}

// granted takes a vbuf for a Get whose waiting, if any, was traced as
// waitSp.
func (p *Pool) granted(rail int, waitSp obs.Span) *Vbuf {
	v := p.take(rail)
	// End unconditionally: End on a never-started span is a no-op, and
	// this way the wait span closes on every path out of the wait.
	waitSp.End()
	if waitSp.Active() {
		v.span.DependsOn(waitSp, obs.DepVbufWait)
	}
	return v
}

// TryGet returns a vbuf if one is immediately available, accounted to
// rail 0.
func (p *Pool) TryGet() (*Vbuf, bool) {
	return p.TryGetRail(0)
}

// TryGetRail is TryGet with the hold accounted to the given rail.
func (p *Pool) TryGetRail(rail int) (*Vbuf, bool) {
	if len(p.freeList) == 0 {
		return nil, false
	}
	return p.take(rail), true
}

func (p *Pool) take(rail int) *Vbuf {
	if rail < 0 {
		panic(fmt.Sprintf("hostmem: negative rail %d on pool %s", rail, p.name))
	}
	v := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	if !v.mapped {
		sp := v.Ptr.Space()
		sp.Map(v.Ptr.Offset(), p.chunkSize)
		v.Region = p.hca.Register(v.Ptr, p.chunkSize)
		v.mapped = true
		p.mapped++
	}
	v.free = false
	p.gets++
	p.held++
	if p.held > p.maxHeld {
		p.maxHeld = p.held
	}
	for len(p.railGets) <= rail {
		p.railGets = append(p.railGets, 0)
	}
	p.railGets[rail]++
	if len(p.freeList) < p.minFree {
		p.minFree = len(p.freeList)
	}
	v.span = p.hub.Start(obs.KindVbuf, p.name, v.Index, p.chunkSize)
	p.hub.Counter(p.freeCtr, float64(len(p.freeList)))
	return v
}

// Put returns a vbuf to the pool, waking one blocked Get if any. Returning
// a vbuf twice or returning a foreign vbuf panics: both are protocol bugs
// in the pipeline.
func (p *Pool) Put(v *Vbuf) {
	if v.pool != p {
		panic(fmt.Sprintf("hostmem: vbuf %d returned to wrong pool %s", v.Index, p.name))
	}
	if v.free {
		panic(fmt.Sprintf("hostmem: double return of vbuf %d to %s", v.Index, p.name))
	}
	v.free = true
	v.span.End()
	v.span = obs.Span{}
	p.held--
	p.freeList = append(p.freeList, v)
	p.puts++
	p.hub.Counter(p.freeCtr, float64(len(p.freeList)))
	if len(p.waiters) > 0 {
		// Shift rather than reslice, so the array is reused.
		head := p.waiters[0]
		n := copy(p.waiters, p.waiters[1:])
		p.waiters[n] = nil
		p.waiters = p.waiters[:n]
		head.Trigger()
	}
}

// Unmap gives back the host memory of a pool whose simulation has
// ended: every mapped vbuf is deregistered and its bytes go to mem's
// recycler, for the next mapping or payload buffer of that length. A vbuf
// taken afterwards is mapped and registered afresh.
func (p *Pool) Unmap() error {
	for _, v := range p.bufs {
		if !v.mapped {
			continue
		}
		p.hca.Deregister(v.Region)
		if err := v.Ptr.Space().Free(v.Ptr); err != nil {
			return fmt.Errorf("hostmem: unmap %s: %w", p.name, err)
		}
		v.Region, v.mapped = ib.Region{}, false
	}
	return nil
}

// MaxHeld returns the pool-wide concurrent-hold high-water mark: the most
// vbufs that were simultaneously out of the pool over the run.
func (p *Pool) MaxHeld() int { return p.maxHeld }

// Waits returns the number of exhaustion events: Get calls that found the
// pool empty and blocked until a vbuf came back. Each event is also
// sampled as the cumulative "<pool>.waits" gauge, so time-series tracers
// see when the pressure happened, not only how often.
func (p *Pool) Waits() uint64 { return p.waits }

// Stats returns a one-line summary; multi-rail pools append the per-rail
// get counts.
func (p *Pool) Stats() string {
	s := fmt.Sprintf("%s: %d x %dB, gets=%d puts=%d minFree=%d",
		p.name, len(p.bufs), p.chunkSize, p.gets, p.puts, p.minFree)
	if len(p.railGets) > 1 {
		s += " railGets="
		for r, g := range p.railGets {
			if r > 0 {
				s += "/"
			}
			s += fmt.Sprintf("%d", g)
		}
	}
	return s
}
