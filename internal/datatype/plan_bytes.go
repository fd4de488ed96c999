// Byte-slice-side chunk plan walks. The NIC scatter/gather unit
// (internal/ib) moves packed data as wire payload byte slices rather than
// simulated memory, so the plan exposes the same chunk-aligned range
// copies as PackRange/UnpackRange with the packed side a []byte: the
// gather reads typed memory into the wire buffer, the scatter writes the
// wire buffer back into typed memory.
package datatype

import "mv2sim/internal/mem"

// PackRangeBytes gathers the packed byte range [packOff, packOff+n) from
// the typed buffer at src into dst, where dst addresses the range itself
// (dst[0] holds packed byte packOff). The range must be chunk-aligned per
// the PackRange contract; the walk allocates nothing.
func (p *ChunkPlan) PackRangeBytes(dst []byte, src mem.Ptr, packOff, n int) {
	p.copyRangeBytes(dst, src, packOff, n, true)
}

// UnpackRangeBytes scatters the packed byte range [packOff, packOff+n)
// from src into the typed buffer at dst — the inverse of PackRangeBytes.
func (p *ChunkPlan) UnpackRangeBytes(dst mem.Ptr, src []byte, packOff, n int) {
	p.copyRangeBytes(src, dst, packOff, n, false)
}

// RangeSegments returns the number of contiguous segments the
// chunk-aligned packed range [packOff, packOff+n) spans — the
// scatter/gather entry count when the range is lowered to a NIC
// descriptor, mirroring KernelDesc.Segments for kernel launches.
func (p *ChunkPlan) RangeSegments(packOff, n int) int {
	if n == 0 {
		return 0
	}
	p.checkAligned(packOff, n)
	c0, c1 := p.chunkSpan(packOff, n)
	return p.segs[c1] - p.segs[c0]
}

func (p *ChunkPlan) copyRangeBytes(b []byte, a mem.Ptr, packOff, n int, packing bool) {
	if n == 0 {
		return
	}
	p.checkAligned(packOff, n)
	p.walk(b[:n], a, packOff, packing)
}
