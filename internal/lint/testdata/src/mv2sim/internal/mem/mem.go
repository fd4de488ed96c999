// Package mem is a golden-test stub of the real internal/mem: the lint
// analyzers match simulator API by import path and type name, so the
// stubs live under the same import paths as the real packages.
package mem

// Ptr is a simulated device/host pointer.
type Ptr struct {
	off int
}

// Add offsets the pointer.
func (p Ptr) Add(n int) Ptr { return Ptr{p.off + n} }

// Space is a simulated address space.
type Space struct {
	base Ptr
}

// NewHostSpace creates a host space.
func NewHostSpace(name string, n int) *Space { return &Space{} }

// Base returns the base pointer.
func (s *Space) Base() Ptr { return s.base }

// Free releases the extent that starts at p.
func (s *Space) Free(p Ptr) error { return nil }
