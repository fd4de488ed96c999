// Package mem provides the unified memory abstraction shared by the
// simulated host and GPU devices.
//
// A Space is one physical address space: a reserved range of addresses
// whose bytes exist only where an allocator has mapped them, the
// simulated analogue of CUDA's reserve-then-map virtual memory calls. A
// Ptr is an (space, offset) pair, the simulation's analogue of a raw
// pointer under CUDA Unified Virtual Addressing: any component can inspect
// a Ptr and tell whether it points into host or device memory and into
// which device — exactly the classification MVAPICH2 performs with
// cuPointerGetAttribute to route device buffers onto the GPU path.
//
// Each mapping is backed by a real Go byte slice, so all simulated copies
// move real bytes between Spaces through this package and end-to-end data
// integrity is directly testable. Host cost is paid only for mapped
// bytes: a 3 GB device costs nothing until cudaMalloc hands memory out.
package mem

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Kind classifies an address space.
type Kind uint8

const (
	// Host is pageable or pinned CPU memory.
	Host Kind = iota
	// Device is GPU global memory.
	Device
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Space is one simulated physical address space of a fixed size. Only
// mapped extents have backing bytes; an access outside every extent
// panics, which is how use-after-free and out-of-allocation accesses
// surface.
//
// The extent table is copy-on-write behind an atomic pointer: Bytes takes
// one atomic load and a binary search and never locks, so engine task
// bodies may read memory while a process maps or unmaps other buffers.
type Space struct {
	kind Kind
	dev  int // device ordinal; -1 for host
	name string
	size int

	table atomic.Pointer[[]extent] // sorted by offset, disjoint

	mu         sync.Mutex // serialises Map and Unmap
	spares     [][]byte   // unmapped backings, reused LIFO by exact length
	mapped     int        // bytes in the table
	spareBytes int        // bytes in spares
}

// extent is one mapped range [off, off+len(b)).
type extent struct {
	off int
	b   []byte
}

// Reserve creates an address space of the given size with nothing
// mapped; Map materialises the ranges an allocator hands out. dev is the
// device ordinal of a Device space and is ignored for Host.
func Reserve(kind Kind, name string, dev, size int) *Space {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative size %d for space %s", size, name))
	}
	if kind == Host {
		dev = -1
	}
	s := &Space{kind: kind, dev: dev, name: name, size: size}
	s.table.Store(&[]extent{})
	return s
}

// NewHostSpace creates a host address space of the given size, mapped in
// full.
func NewHostSpace(name string, size int) *Space {
	return mapAll(Reserve(Host, name, -1, size))
}

// NewDeviceSpace creates a device address space of the given size for
// device ordinal dev, mapped in full.
func NewDeviceSpace(name string, dev, size int) *Space {
	return mapAll(Reserve(Device, name, dev, size))
}

func mapAll(s *Space) *Space {
	if s.size > 0 {
		s.Map(0, s.size)
	}
	return s
}

// Kind returns the space kind.
func (s *Space) Kind() Kind { return s.kind }

// DeviceID returns the device ordinal, or -1 for host spaces.
func (s *Space) DeviceID() int { return s.dev }

// Name returns the space name.
func (s *Space) Name() string { return s.name }

// Size returns the space size in bytes: its reserved capacity, mapped or
// not.
func (s *Space) Size() int { return s.size }

// Base returns a pointer to offset 0 of the space.
func (s *Space) Base() Ptr { return Ptr{sp: s} }

// Mappings returns the number of mapped extents.
func (s *Space) Mappings() int { return len(*s.table.Load()) }

// Map gives the n bytes at off a backing and returns a pointer to them.
// The range must lie inside the space and overlap no mapping; both are
// allocator invariants, so a violation panics. A backing unmapped earlier
// with the same length is reused as is, stale bytes included, the way
// freed memory keeps its contents; otherwise the bytes are zero.
func (s *Space) Map(off, n int) Ptr {
	if n <= 0 || off < 0 || off+n > s.size {
		panic(fmt.Sprintf("mem: map [0x%x,0x%x) outside %s [0,0x%x)", off, off+n, s.name, s.size))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.table.Load()
	i := search(old, off+n-1) + 1 // insertion point: first extent past the range's last byte
	if i > 0 && old[i-1].off+len(old[i-1].b) > off {
		panic(fmt.Sprintf("mem: map [0x%x,0x%x) of %s overlaps mapping %v len %d",
			off, off+n, s.name, Ptr{sp: s, off: old[i-1].off}, len(old[i-1].b)))
	}
	t := make([]extent, 0, len(old)+1)
	t = append(append(append(t, old[:i]...), extent{off, s.backing(n)}), old[i:]...)
	s.mapped += n
	s.table.Store(&t)
	return Ptr{sp: s, off: off}
}

// backing returns an n-byte slice for a new mapping: the most recently
// unmapped spare of exactly that length, or a fresh zeroed slice after
// releasing the oldest spares to keep mapped plus spare bytes within the
// space's size. The caller holds s.mu.
func (s *Space) backing(n int) []byte {
	for i := len(s.spares) - 1; i >= 0; i-- {
		if b := s.spares[i]; len(b) == n {
			s.spares = slices.Delete(s.spares, i, i+1)
			s.spareBytes -= n
			return b
		}
	}
	drop := 0
	for ; s.mapped+s.spareBytes+n > s.size; drop++ {
		s.spareBytes -= len(s.spares[drop])
		s.spares[drop] = nil
	}
	s.spares = s.spares[drop:]
	return make([]byte, n)
}

// Unmap removes the mapping that starts at off. Its bytes become
// unreachable through the space; the backing is kept as a spare for the
// next mapping of the same length.
func (s *Space) Unmap(off int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.table.Load()
	i := search(old, off)
	if i < 0 || old[i].off != off {
		panic(fmt.Sprintf("mem: unmap of %v, which starts no mapping", Ptr{sp: s, off: off}))
	}
	b := old[i].b
	t := make([]extent, 0, len(old)-1)
	t = append(append(t, old[:i]...), old[i+1:]...)
	s.table.Store(&t)
	s.mapped -= len(b)
	s.spares = append(s.spares, b)
	s.spareBytes += len(b)
}

// search returns the index of the last extent in t starting at or before
// off, or -1.
func search(t []extent, off int) int {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].off <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// Ptr is a pointer into a Space. The zero Ptr is a "null pointer":
// IsNil reports true and any access panics.
type Ptr struct {
	sp  *Space
	off int
}

// IsNil reports whether p is the null pointer.
func (p Ptr) IsNil() bool { return p.sp == nil }

// Space returns the address space p points into.
func (p Ptr) Space() *Space {
	if p.sp == nil {
		panic("mem: nil pointer dereference")
	}
	return p.sp
}

// Offset returns p's byte offset within its space.
func (p Ptr) Offset() int { return p.off }

// Kind returns the kind of the space p points into.
func (p Ptr) Kind() Kind { return p.Space().kind }

// IsDevice reports whether p points into device memory. This is the UVA
// classification hook used by the MPI library to detect GPU buffers.
func (p Ptr) IsDevice() bool { return p.Space().kind == Device }

// DeviceID returns the device ordinal of p's space (-1 for host).
func (p Ptr) DeviceID() int { return p.Space().dev }

// Add returns a pointer n bytes past p. Negative offsets are allowed as
// long as the result stays within the space.
func (p Ptr) Add(n int) Ptr {
	q := Ptr{sp: p.Space(), off: p.off + n}
	if q.off < 0 || q.off > q.sp.size {
		panic(fmt.Sprintf("mem: pointer %v+%d out of space bounds [0,%d]", p, n, q.sp.size))
	}
	return q
}

// Bytes returns a mutable view of n bytes at p. The range must lie inside
// one mapping; a zero-length view is legal anywhere in the space.
func (p Ptr) Bytes(n int) []byte {
	s := p.Space()
	if n < 0 || p.off+n > s.size {
		panic(fmt.Sprintf("mem: access %v len %d out of bounds (space size %d)", p, n, s.size))
	}
	if n == 0 {
		return nil
	}
	t := *s.table.Load()
	i := search(t, p.off)
	if i < 0 || p.off+n > t[i].off+len(t[i].b) {
		panic(fmt.Sprintf("mem: access %v len %d is not inside one mapping (unallocated or freed memory)", p, n))
	}
	rel := p.off - t[i].off
	return t[i].b[rel : rel+n : rel+n]
}

// SameSpace reports whether two pointers target the same address space.
func (p Ptr) SameSpace(q Ptr) bool { return p.Space() == q.Space() }

func (p Ptr) String() string {
	if p.sp == nil {
		return "nil"
	}
	return fmt.Sprintf("%s+0x%x", p.sp.name, p.off)
}

// Copy moves n bytes from src to dst. Overlapping ranges within the same
// space copy correctly (memmove semantics). This is the bytes-only
// primitive; timing is the caller's concern.
func Copy(dst, src Ptr, n int) {
	copy(dst.Bytes(n), src.Bytes(n))
}

// Copy2D moves a width×height rectangle of bytes: height rows of width
// bytes each, where consecutive rows are dpitch (resp. spitch) bytes apart
// in the destination (resp. source). Pitches must be ≥ width, matching the
// cudaMemcpy2D contract.
func Copy2D(dst Ptr, dpitch int, src Ptr, spitch, width, height int) {
	if width < 0 || height < 0 {
		panic("mem: negative 2D copy dimensions")
	}
	if dpitch < width || spitch < width {
		panic(fmt.Sprintf("mem: pitch smaller than width (dpitch=%d spitch=%d width=%d)", dpitch, spitch, width))
	}
	if height == 0 || width == 0 {
		return
	}
	// One bounds-checked view per side covers every row: pitches are at
	// least the width, so the last row ends furthest out.
	d := dst.Bytes((height-1)*dpitch + width)
	s := src.Bytes((height-1)*spitch + width)
	for r := 0; r < height; r++ {
		copy(d[r*dpitch:r*dpitch+width], s[r*spitch:r*spitch+width])
	}
}

// Fill writes the byte pattern generated by gen(i) into n bytes at p.
// It is used by tests to create verifiable contents.
func Fill(p Ptr, n int, gen func(i int) byte) {
	b := p.Bytes(n)
	for i := range b {
		b[i] = gen(i)
	}
}

// Equal reports whether n bytes at a and b are identical.
func Equal(a, b Ptr, n int) bool {
	ab, bb := a.Bytes(n), b.Bytes(n)
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}
