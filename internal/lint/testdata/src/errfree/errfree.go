// Package errfree holds golden cases for the errfree analyzer.
package errfree

import (
	"fmt"

	"mv2sim/internal/cuda"
	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
)

// Positive: calling Free as a bare statement drops the error.
func Discards(dev *gpu.Device, p mem.Ptr) {
	dev.Free(p) // want `error result of Device.Free is discarded`
}

// Positive: assigning to the blank identifier is equally discarded.
func Blank(ctx *cuda.Ctx, p mem.Ptr) {
	_ = ctx.Free(p) // want `error result of Ctx.Free is discarded`
}

// Positive: a bare deferred Free cannot surface its error.
func Deferred(dev *gpu.Device, p mem.Ptr) {
	defer dev.Free(p) // want `error result of Device.Free is discarded`
}

// Positive: a space's own Free reports the same corruption.
func SpaceDiscards(s *mem.Space, p mem.Ptr) {
	s.Free(p) // want `error result of Space.Free is discarded`
}

// Positive: CheckAllocator exists only for its error.
func Check(dev *gpu.Device) {
	dev.CheckAllocator() // want `error result of Device.CheckAllocator is discarded`
}

// Negative: errors consumed and propagated.
func Consumed(dev *gpu.Device, p mem.Ptr) error {
	if err := dev.Free(p); err != nil {
		return fmt.Errorf("free: %w", err)
	}
	return dev.CheckAllocator()
}

// Negative: a space's Free error returned to the caller.
func SpaceConsumed(s *mem.Space, p mem.Ptr) error {
	return s.Free(p)
}

// Negative: a deferred closure that inspects the error is fine.
func DeferredClosure(dev *gpu.Device, p mem.Ptr) {
	defer func() {
		if err := dev.Free(p); err != nil {
			panic(err)
		}
	}()
}
