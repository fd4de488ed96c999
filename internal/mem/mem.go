// Package mem provides the unified memory abstraction shared by the
// simulated host and GPU devices.
//
// A Space is one physical address space backed by a real Go byte slice;
// a Ptr is an (space, offset) pair, the simulation's analogue of a raw
// pointer under CUDA Unified Virtual Addressing: any component can inspect
// a Ptr and tell whether it points into host or device memory and into
// which device — exactly the classification MVAPICH2 performs with
// cuPointerGetAttribute to route device buffers onto the GPU path.
//
// All simulated copies ultimately move real bytes between Spaces through
// this package, so end-to-end data integrity is directly testable.
package mem

import "fmt"

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

// Space is one simulated physical address space.
type Space struct {
	kind Kind
	dev  int // device ordinal; -1 for host
	name string
	data []byte
}

// NewHostSpace creates a host address space of the given size.
func NewHostSpace(name string, size int) *Space {
	return &Space{kind: Host, dev: -1, name: name, data: make([]byte, size)}
}

// NewDeviceSpace creates a device address space of the given size for
// device ordinal dev.
func NewDeviceSpace(name string, dev, size int) *Space {
	return &Space{kind: Device, dev: dev, name: name, data: make([]byte, size)}
}

// Kind returns the space kind.
func (s *Space) Kind() Kind { return s.kind }

// DeviceID returns the device ordinal, or -1 for host spaces.
func (s *Space) DeviceID() int { return s.dev }

// Name returns the space name.
func (s *Space) Name() string { return s.name }

// Size returns the space size in bytes.
func (s *Space) Size() int { return len(s.data) }

// Base returns a pointer to offset 0 of the space.
func (s *Space) Base() Ptr { return Ptr{sp: s} }

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
	if q.off < 0 || q.off > len(q.sp.data) {
		panic(fmt.Sprintf("mem: pointer %v+%d out of space bounds [0,%d]", p, n, len(q.sp.data)))
	}
	return q
}

// Bytes returns a mutable view of n bytes at p, bounds-checked.
func (p Ptr) Bytes(n int) []byte {
	s := p.Space()
	if n < 0 || p.off+n > len(s.data) {
		panic(fmt.Sprintf("mem: access %v len %d out of bounds (space size %d)", p, n, len(s.data)))
	}
	return s.data[p.off : p.off+n : p.off+n]
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
	if height == 0 {
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
