// Package gpu is a golden-test stub of the real internal/gpu.
package gpu

import (
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// Device is a simulated GPU.
type Device struct{}

// Config parameterizes a device.
type Config struct {
	MemBytes int
}

// New creates a device.
func New(e *sim.Engine, id int, cfg Config) *Device { return &Device{} }

// Malloc allocates device memory.
func (d *Device) Malloc(n int) (mem.Ptr, error) { return mem.Ptr{}, nil }

// MustMalloc allocates or panics.
func (d *Device) MustMalloc(n int) mem.Ptr { return mem.Ptr{} }

// Free releases an allocation.
func (d *Device) Free(p mem.Ptr) error { return nil }

// CheckAllocator verifies allocator invariants.
func (d *Device) CheckAllocator() error { return nil }

// LiveAllocs counts live allocations.
func (d *Device) LiveAllocs() int { return 0 }
