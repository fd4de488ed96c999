// Chunk-aligned pack plans. The pipeline moves a non-contiguous message
// as a sequence of fixed-size packed chunks; without a plan every chunk
// re-derives its pieces from the type map (a divide, a binary search, and
// per-run bookkeeping). A ChunkPlan does that derivation once per (count,
// chunkBytes) pair and caches the result on the datatype: each chunk's
// pieces as runs clipped at the chunk's boundaries, so the steady-state
// chunk path is a straight walk over a few precomputed runs with zero
// allocations — the commit-time canonicalization real CUDA-aware MPI
// implementations use (TEMPI, arXiv:2012.14363).
package datatype

import (
	"fmt"
	"sync"

	"mv2sim/internal/mem"
)

// ChunkPlan is the precomputed chunk-aligned pack plan for `count`
// elements of one datatype split into chunkBytes-sized packed chunks. It
// is immutable and safe for concurrent use.
type ChunkPlan struct {
	t          *Datatype
	count      int
	chunkBytes int
	total      int   // count * size
	runs       []run // per chunk, coalesced; pack is the absolute packed offset
	index      []int // runs[index[c]:index[c+1]] belong to chunk c
	segs       []int // segs[c] = contiguous pieces in chunks before c
}

type planKey struct {
	count      int
	chunkBytes int
}

// ChunkPlan returns the (cached) plan for packing count elements of t in
// chunkBytes-sized chunks. The first call per (count, chunkBytes) builds
// the plan in one pass over the expanded type map; later calls are a map
// lookup. The cache lives on the committed type, which is otherwise
// immutable, so shared predefined types guard it with a mutex.
func (t *Datatype) ChunkPlan(count, chunkBytes int) *ChunkPlan {
	t.mustCommitted()
	if count < 0 || chunkBytes <= 0 {
		panic(fmt.Sprintf("datatype: invalid plan geometry (count=%d chunkBytes=%d)", count, chunkBytes))
	}
	key := planKey{count, chunkBytes}
	t.planMu.Lock()
	defer t.planMu.Unlock()
	if p, ok := t.plans[key]; ok {
		return p
	}
	p := t.buildPlan(count, chunkBytes)
	if t.plans == nil {
		t.plans = map[planKey]*ChunkPlan{}
	}
	t.plans[key] = p
	return p
}

// buildPlan clips the packed stream of count elements at chunk
// boundaries, coalescing typed-contiguous pieces within each chunk
// (cross-element coalescing included) but never across a boundary.
func (t *Datatype) buildPlan(count, chunkBytes int) *ChunkPlan {
	total := count * t.size
	chunks := (total + chunkBytes - 1) / chunkBytes
	p := &ChunkPlan{t: t, count: count, chunkBytes: chunkBytes, total: total}
	p.index = make([]int, chunks+1)
	p.segs = make([]int, chunks+1)
	var c coalescer
	for ch := 0; ch < chunks; ch++ {
		c.seal()
		p.index[ch] = len(c.runs)
		t.clip(ch*chunkBytes, p.ChunkLen(ch), c.add)
	}
	p.index[chunks] = len(c.runs)
	p.runs = c.runs
	for ch := 0; ch < chunks; ch++ {
		p.segs[ch+1] = p.segs[ch]
		for _, r := range p.runs[p.index[ch]:p.index[ch+1]] {
			p.segs[ch+1] += r.n
		}
	}
	return p
}

// Chunks returns the number of chunks in the plan.
func (p *ChunkPlan) Chunks() int { return len(p.index) - 1 }

// ChunkBytes returns the plan's chunk size.
func (p *ChunkPlan) ChunkBytes() int { return p.chunkBytes }

// Total returns the packed byte count covered by the plan.
func (p *ChunkPlan) Total() int { return p.total }

// ChunkLen returns the packed length of chunk c (only the final chunk may
// be short).
func (p *ChunkPlan) ChunkLen(c int) int {
	n := p.total - c*p.chunkBytes
	if n > p.chunkBytes {
		n = p.chunkBytes
	}
	return n
}

// SegmentCount returns the number of contiguous copies chunk c takes —
// the per-segment cost driver for pack-kernel models.
func (p *ChunkPlan) SegmentCount(c int) int { return p.segs[c+1] - p.segs[c] }

// chunkSpan returns the chunks [c0, c1) covering the chunk-aligned range
// [packOff, packOff+n).
func (p *ChunkPlan) chunkSpan(packOff, n int) (c0, c1 int) {
	return packOff / p.chunkBytes, (packOff + n + p.chunkBytes - 1) / p.chunkBytes
}

// checkAligned enforces the plan contract: ranges start on a chunk
// boundary and end on one (or at the end of the stream).
func (p *ChunkPlan) checkAligned(packOff, n int) {
	if packOff < 0 || n < 0 || packOff+n > p.total ||
		packOff%p.chunkBytes != 0 ||
		((packOff+n)%p.chunkBytes != 0 && packOff+n != p.total) {
		panic(fmt.Sprintf("datatype: plan range [%d,%d) not chunk-aligned (chunk=%d total=%d)",
			packOff, packOff+n, p.chunkBytes, p.total))
	}
}

// PackRange gathers the packed byte range [packOff, packOff+n) into dst,
// where dst addresses the range itself (dst byte 0 holds packed byte
// packOff). The range must be chunk-aligned per checkAligned. The walk
// touches only the precomputed runs and allocates nothing.
func (p *ChunkPlan) PackRange(dst, src mem.Ptr, packOff, n int) {
	p.copyRange(dst, src, packOff, n, true)
}

// UnpackRange scatters the packed byte range [packOff, packOff+n) from
// src into the typed buffer at dst — the inverse of PackRange.
func (p *ChunkPlan) UnpackRange(dst, src mem.Ptr, packOff, n int) {
	p.copyRange(src, dst, packOff, n, false)
}

// PackChunk gathers chunk c into dst (chunk-local addressing).
func (p *ChunkPlan) PackChunk(dst, src mem.Ptr, c int) {
	p.PackRange(dst, src, c*p.chunkBytes, p.ChunkLen(c))
}

// UnpackChunk scatters chunk c from src into the typed buffer at dst.
func (p *ChunkPlan) UnpackChunk(dst, src mem.Ptr, c int) {
	p.UnpackRange(dst, src, c*p.chunkBytes, p.ChunkLen(c))
}

func (p *ChunkPlan) copyRange(packed, typed mem.Ptr, packOff, n int, packing bool) {
	if n == 0 {
		return
	}
	p.checkAligned(packOff, n)
	p.walk(packed.Bytes(n), typed, packOff, packing)
}

// walk moves the chunk-aligned packed range [packOff, packOff+len(pv))
// between pv and the typed buffer at typed, gathering into pv when
// packing: one bounds-checked view per side, then a strided walk over
// the range's runs.
func (p *ChunkPlan) walk(pv []byte, typed mem.Ptr, packOff int, packing bool) {
	c0, c1 := p.chunkSpan(packOff, len(pv))
	runs := p.runs[p.index[c0]:p.index[c1]]
	lo, hi := runsHull(runs)
	tv := typed.Add(lo).Bytes(hi - lo)
	for _, r := range runs {
		moveRun(pv[r.pack-packOff:], tv, r.off-lo, r.len, r.stride, r.n, packing)
	}
}

// planCache holds the lazily built per-(count, chunkBytes) plans; see
// Datatype.ChunkPlan. Separated into its own struct so Datatype literals
// elsewhere in the package stay valid.
type planCache struct {
	planMu sync.Mutex
	plans  map[planKey]*ChunkPlan
}
