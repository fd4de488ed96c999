// Lowering chunk plans to gather/scatter kernel launches. A KernelDesc is
// the device-side view of one chunk-aligned packed range: the simulated
// pack kernel's "arguments" (segment list, byte count) precomputed so the
// launch site derives nothing per chunk.
package datatype

import "mv2sim/internal/mem"

// KernelDesc describes one gather/scatter kernel lowered from a ChunkPlan:
// the packed byte range it covers and the plan whose precomputed segments
// the kernel walks. The zero value is an empty kernel.
type KernelDesc struct {
	p       *ChunkPlan
	packOff int
	n       int
}

// Kernel lowers the packed byte range [packOff, packOff+n) into a kernel
// descriptor. The range must be chunk-aligned per the PackRange contract.
func (p *ChunkPlan) Kernel(packOff, n int) KernelDesc {
	if n > 0 {
		p.checkAligned(packOff, n)
	}
	return KernelDesc{p: p, packOff: packOff, n: n}
}

// Bytes returns the packed bytes the kernel moves — its cell count under
// the gpu cost model's per-byte kernel rate.
func (d KernelDesc) Bytes() int { return d.n }

// Segments returns the number of contiguous pieces the kernel gathers or
// scatters.
func (d KernelDesc) Segments() int {
	if d.n == 0 {
		return 0
	}
	return d.p.RangeSegments(d.packOff, d.n)
}

// Pack applies the gather: dst addresses the packed range itself (byte 0
// of dst holds packed byte packOff), src is the typed buffer.
func (d KernelDesc) Pack(dst, src mem.Ptr) { d.p.PackRange(dst, src, d.packOff, d.n) }

// Unpack applies the scatter — the inverse of Pack.
func (d KernelDesc) Unpack(dst, src mem.Ptr) { d.p.UnpackRange(dst, src, d.packOff, d.n) }
