// Package mem provides the unified memory abstraction shared by the
// simulated host and GPU devices.
//
// A Space is one physical address space: a reserved range of addresses
// whose bytes exist only where they have been allocated, the simulated
// analogue of CUDA's reserve-then-map virtual memory calls. The Space is
// also the allocator: its sorted extent table is the one record of live
// memory, and Alloc places each buffer first-fit in the table's gaps,
// the way cudaMalloc and the MPI library's host heap hand out memory. A
// Ptr is an (space, offset) pair, the simulation's analogue of a raw
// pointer under CUDA Unified Virtual Addressing: any component can inspect
// a Ptr and tell whether it points into host or device memory and into
// which device — exactly the classification MVAPICH2 performs with
// cuPointerGetAttribute to route device buffers onto the GPU path.
//
// Each mapping is backed by a real Go byte slice, so every simulated copy
// that delivers data moves real bytes between Spaces through this
// package and end-to-end data integrity is directly testable. Staging
// hops whose destination nobody reads are timed without moving bytes
// (see AllocWith). Host cost is paid only for mapped bytes: a 3 GB
// device costs nothing until cudaMalloc hands memory out.
//
// Freed bytes go to one process-wide recycler, keyed by exact length and
// bounded in size, which also serves the message path's payload buffers
// (GetBytes, PutBytes). It outlives every cluster, so a process that
// builds cluster after cluster, as the benchmarks and sweeps do, reuses
// the bytes each one frees instead of allocating them again. A mapping
// from Alloc or Map sees its own space's stale bytes or zeroes, never
// another owner's; one from AllocWith sees the bytes it was given.
package mem

import (
	"fmt"
	"slices"
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

// Space is one simulated physical address space of a fixed size, and
// the only record of what is live in it. Each extent reserves a range
// and backs its leading bytes; Alloc hands out aligned reservations
// first-fit from the gaps between extents, Map places one at a fixed
// offset, and Free releases either. Only backed bytes are accessible: an
// access outside every backing panics, which is how use-after-free and
// out-of-allocation accesses surface.
//
// A Space is plain single-threaded data. It belongs to one cluster, one
// engine drives that cluster, and no simulator code starts a goroutine.
// Only the bytes it frees leave it, to the process-wide recycler.
type Space struct {
	kind Kind
	dev  int // device ordinal; -1 for host
	name string
	size int
	id   int // owner tag of the backings it frees

	table     []extent // sorted by offset, disjoint by reservation
	mapped    int      // bytes backed by the table
	inUse     int      // bytes reserved by the table
	peakInUse int      // high-water mark of inUse

	bytes *ByteCounters // where the byte work on this space is counted; nil: nowhere
}

// extent is one reservation [off, off+res), of which [off, off+len(b))
// is backed; the rest is alignment padding.
type extent struct {
	off int
	res int
	b   []byte
}

// Reserve creates an address space of the given size with nothing
// mapped; Alloc and Map materialise ranges in it. dev is the device
// ordinal of a Device space and is ignored for Host.
func Reserve(kind Kind, name string, dev, size int) *Space {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative size %d for space %s", size, name))
	}
	if kind == Host {
		dev = -1
	}
	return &Space{kind: kind, dev: dev, name: name, size: size, id: recycled.newOwner()}
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

// Mappings returns the number of live extents: allocations plus fixed
// mappings.
func (s *Space) Mappings() int { return len(s.table) }

// InUse returns the number of reserved bytes, alignment padding included.
func (s *Space) InUse() int { return s.inUse }

// PeakInUse returns the high-water mark of InUse.
func (s *Space) PeakInUse() int { return s.peakInUse }

// SetByteCounters makes the space count its byte work in c: the bytes
// Copy and Copy2D move into it and the bytes its new mappings zero.
func (s *Space) SetByteCounters(c *ByteCounters) { s.bytes = c }

// Alloc reserves n bytes rounded up to align, a power of two, in the
// lowest gap between extents that holds them, and maps exactly the n
// bytes it returns a pointer to: the padding past them is not
// accessible. Freed gaps merge with their neighbours by construction, so
// this is first-fit with eager coalescing.
func (s *Space) Alloc(n, align int) (Ptr, error) {
	return s.alloc(n, align, nil)
}

// AllocWith is Alloc of len(b) bytes backed by b instead of by the
// recycler: b is neither taken nor cleared, so the mapping reads b's
// bytes as they are. It is for buffers internal to the simulator whose
// every byte is written before anything reads it, or that share another
// mapping's bytes on purpose; user-visible memory comes from Alloc. The
// mapping owns b until Free, which hands it to the recycler, or Release,
// which hands it back.
func (s *Space) AllocWith(b []byte, align int) (Ptr, error) {
	return s.alloc(len(b), align, b)
}

// alloc places an n-byte allocation first-fit and backs it with b, or
// with the recycler when b is nil.
func (s *Space) alloc(n, align int, b []byte) (Ptr, error) {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d of %s is not a power of two", align, s.name))
	}
	if n <= 0 {
		return Ptr{}, fmt.Errorf("mem: allocation size %d must be positive", n)
	}
	need := (n + align - 1) &^ (align - 1)
	at := 0 // end of the previous reservation
	for i := 0; i <= len(s.table); i++ {
		end := s.size
		if i < len(s.table) {
			end = s.table[i].off
		}
		if off := (at + align - 1) &^ (align - 1); end-off >= need {
			if b == nil {
				b = s.backing(n)
			}
			return s.insert(i, off, need, b), nil
		}
		if i < len(s.table) {
			at = s.table[i].off + s.table[i].res
		}
	}
	return Ptr{}, fmt.Errorf("mem: %s out of memory (want %d bytes, %d free of %d, in %d extents)",
		s.name, need, s.size-s.inUse, s.size, len(s.table))
}

// Map gives the n bytes at off a backing and returns a pointer to them,
// for users that place buffers at fixed offsets. The range must lie
// inside the space and overlap no extent; a violation panics.
func (s *Space) Map(off, n int) Ptr {
	if n <= 0 || off < 0 || off+n > s.size {
		panic(fmt.Sprintf("mem: map [0x%x,0x%x) outside %s [0,0x%x)", off, off+n, s.name, s.size))
	}
	i := search(s.table, off+n-1) + 1 // insertion point: first extent past the range's last byte
	if i > 0 && s.table[i-1].off+s.table[i-1].res > off {
		panic(fmt.Sprintf("mem: map [0x%x,0x%x) of %s overlaps mapping %v len %d",
			off, off+n, s.name, Ptr{sp: s, off: s.table[i-1].off}, s.table[i-1].res))
	}
	return s.insert(i, off, n, s.backing(n))
}

// insert adds an extent reserving res bytes at off, backed by b, at
// table index i.
func (s *Space) insert(i, off, res int, b []byte) Ptr {
	s.table = slices.Insert(s.table, i, extent{off, res, b})
	s.mapped += len(b)
	s.inUse += res
	s.peakInUse = max(s.peakInUse, s.inUse)
	return Ptr{sp: s, off: off}
}

// backing returns an n-byte slice for a new mapping: the recycler's most
// recently parked slice of exactly that length, or a fresh zeroed one. A
// slice this space freed keeps its stale bytes, the way freed memory
// keeps its contents; one freed by any other owner is cleared first, so
// it reads as fresh memory and nothing leaks from one cluster to another.
// A fresh slice and a cleared one both count as zeroed bytes.
func (s *Space) backing(n int) []byte {
	p, ok := recycled.take(n)
	if !ok {
		s.bytes.zeroed(n)
		return make([]byte, n)
	}
	if p.owner != s.id {
		s.bytes.zeroed(n)
		clear(p.b)
	}
	return p.b
}

// Free releases the extent that starts at p, allocated or mapped. Its
// bytes become unreachable through the space and its backing goes to the
// recycler, for the next mapping or payload buffer of the same length. A
// pointer into another space, or one that starts no extent, is an error.
func (s *Space) Free(p Ptr) error {
	b, err := s.Release(p)
	if err == nil {
		recycled.put(b, s.id)
	}
	return err
}

// Release is Free that hands the extent's backing back to the caller
// instead of to the recycler: the counterpart of AllocWith for a backing
// that outlives its mapping here.
func (s *Space) Release(p Ptr) ([]byte, error) {
	if p.sp != s {
		return nil, fmt.Errorf("mem: free of %v, which is not in %s", p, s.name)
	}
	i := search(s.table, p.off)
	if i < 0 || s.table[i].off != p.off {
		return nil, fmt.Errorf("mem: free of %v, which starts no allocation", p)
	}
	x := s.table[i]
	s.table = slices.Delete(s.table, i, i+1)
	s.mapped -= len(x.b)
	s.inUse -= x.res
	return x.b, nil
}

// Check validates the table: extents sorted and disjoint by reservation
// and inside the space, each backing non-empty and no longer than its
// reservation, and the byte counts equal to the table's sums.
func (s *Space) Check() error {
	end, res, mapped := 0, 0, 0
	for _, x := range s.table {
		at := Ptr{sp: s, off: x.off}
		switch {
		case x.off < end:
			return fmt.Errorf("mem: extent %v overlaps its predecessor or is out of order", at)
		case x.off+x.res > s.size:
			return fmt.Errorf("mem: extent %v len %d runs past the end of %s", at, x.res, s.name)
		case len(x.b) == 0 || len(x.b) > x.res:
			return fmt.Errorf("mem: extent %v backs %d of its %d reserved bytes", at, len(x.b), x.res)
		}
		end = x.off + x.res
		res += x.res
		mapped += len(x.b)
	}
	if res != s.inUse || mapped != s.mapped {
		return fmt.Errorf("mem: %s accounts %d reserved and %d backed bytes, its extents hold %d and %d",
			s.name, s.inUse, s.mapped, res, mapped)
	}
	return nil
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
	t := s.table
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
	dst.Space().bytes.Copy(dst.Bytes(n), src.Bytes(n))
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
	if height == 1 || (dpitch == width && spitch == width) {
		dst.sp.bytes.Copy(d, s) // rows that abut on both sides are one run
		return
	}
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

// ByteCounters tallies the host byte work of one cluster's simulated
// memory traffic, so a test or a benchmark can tell the bytes delivery
// needs from the bytes the simulator moves or clears on the way. Every
// component of one cluster counts into the same ByteCounters, and one
// engine drives them all, so it needs no lock; clusters that run at the
// same time keep separate ones. A nil *ByteCounters counts nothing.
type ByteCounters struct {
	// Copied is the contiguous bytes copied: Copy, Copy2D of rows that
	// abut on both sides, RDMA write snapshots and landings, RDMA read
	// snapshots and landings, two-sided send snapshots and the MPI
	// layer's and the GPU transport's host copies. Strided copies (the
	// pack and unpack walks) are not counted.
	Copied int64
	// Zeroed is the bytes a new mapping's backing zeroed: a fresh slice,
	// or a recycled one another owner freed.
	Zeroed int64
}

// Copy copies src into dst, as the builtin does, and counts the bytes.
func (c *ByteCounters) Copy(dst, src []byte) {
	n := copy(dst, src)
	if c != nil {
		c.Copied += int64(n)
	}
}

func (c *ByteCounters) zeroed(n int) {
	if c != nil {
		c.Zeroed += int64(n)
	}
}

// CopyOut copies the len(dst) bytes at src into dst, a buffer outside
// every space, and counts them against src's space.
func CopyOut(dst []byte, src Ptr) {
	src.Space().bytes.Copy(dst, src.Bytes(len(dst)))
}

// CopyIn copies src, a buffer outside every space, into the len(src)
// bytes at dst, and counts them against dst's space.
func CopyIn(dst Ptr, src []byte) {
	dst.Space().bytes.Copy(dst.Bytes(len(src)), src)
}
