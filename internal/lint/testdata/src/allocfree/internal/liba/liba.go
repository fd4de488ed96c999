// Package liba holds golden cases for the allocfree analyzer: the import
// path contains /internal/, so both the leak check and the
// error-propagation check apply.
package liba

import (
	"fmt"

	"mv2sim/internal/cuda"
	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// Positive: allocated, used only by borrowing simulator calls, never
// freed, never escapes.
func Leaky(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr) {
	buf := ctx.MustMalloc(64) // want `device allocation assigned to buf is not freed on every path`
	ctx.Memcpy(p, dst, buf, 64)
}

// Positive: MustMalloc in library code with no simulation process around.
func Setup(dev *gpu.Device) mem.Ptr {
	return dev.MustMalloc(128) // want `MustMalloc panics on allocation failure`
}

// Positive: exported API turning a recoverable error into a crash.
func Validate(dev *gpu.Device) {
	if err := dev.CheckAllocator(); err != nil {
		panic(err) // want `Validate panics with an error value`
	}
}

// Negative: freed in the same function, error consumed.
func Freed(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr) {
	buf := ctx.MustMalloc(64)
	ctx.Memcpy(p, dst, buf, 64)
	if err := ctx.Free(buf); err != nil {
		panic(err)
	}
}

// Negative: ownership is returned to the caller.
func Alloc(dev *gpu.Device) (mem.Ptr, error) {
	buf, err := dev.Malloc(256)
	if err != nil {
		return mem.Ptr{}, fmt.Errorf("alloc: %w", err)
	}
	return buf, nil
}

// Negative: Must-prefixed functions are documented panic wrappers.
func MustAlloc(dev *gpu.Device) mem.Ptr {
	return dev.MustMalloc(256) // allowed: the function advertises the panic
}

// Negative: inside a spawned simulation process, panicking is the
// designed error channel and MustMalloc is idiomatic.
func RunBench(e *sim.Engine, dev *gpu.Device) {
	e.Spawn("bench", func(p *sim.Proc) {
		buf := dev.MustMalloc(64)
		if err := dev.Free(buf); err != nil {
			panic(err)
		}
	})
}

// Seeded flow bug: stage is freed on the happy path but leaks on the
// early error return after the second allocation fails. The pre-v2
// syntactic analyzer saw the Free call and was satisfied. seeded:flow-only
func EarlyReturnLeak(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr) error {
	stage := ctx.MustMalloc(64) // want `device allocation assigned to stage is not freed on every path`
	extra, err := ctx.Malloc(128)
	if err != nil {
		return err // stage leaks here
	}
	ctx.Memcpy(p, dst, stage, 64)
	if err := ctx.Free(extra); err != nil {
		return err
	}
	return ctx.Free(stage)
}

// Seeded flow bug: freed on one branch only; the pre-v2 analyzer saw a
// Free somewhere in the function and was satisfied. seeded:flow-only
func BranchLeak(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr, fast bool) {
	buf := ctx.MustMalloc(64) // want `device allocation assigned to buf is not freed on every path`
	if fast {
		if err := ctx.Free(buf); err != nil {
			panic(err)
		}
		return
	}
	ctx.Memcpy(p, dst, buf, 64)
}

// Seeded flow bug: the helper only borrows the buffer, which the
// cross-package fact proves, so the leak is real; the pre-v2 analyzer
// treated any helper call as an ownership move. seeded:flow-only
func BorrowedNotFreed(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr) {
	buf := ctx.MustMalloc(64) // want `device allocation assigned to buf is not freed on every path`
	fill(p, ctx, dst, buf)
}

func fill(p *sim.Proc, ctx *cuda.Ctx, dst, src mem.Ptr) {
	ctx.Memcpy(p, dst, src, 64)
}

// Negative: released through a helper whose cross-package fact proves it
// frees its parameter on every path. discard deliberately avoids "free"
// in its name so the release is proven by the fact, not the name
// heuristic.
func FreedViaHelper(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr) {
	buf := ctx.MustMalloc(64)
	ctx.Memcpy(p, dst, buf, 64)
	discard(ctx, buf)
}

func discard(ctx *cuda.Ctx, p mem.Ptr) {
	if err := ctx.Free(p); err != nil {
		panic(err)
	}
}

// Negative: a deferred cleanup closure registered before the early return
// covers every path (the closure capture is an ownership transfer from
// this function's point of view).
func DeferFreed(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr, bad bool) {
	buf := ctx.MustMalloc(64)
	defer func() {
		if err := ctx.Free(buf); err != nil {
			panic(err)
		}
	}()
	if bad {
		return
	}
	ctx.Memcpy(p, dst, buf, 64)
}

// Negative: allocate and free inside each loop iteration.
func LoopFreed(p *sim.Proc, ctx *cuda.Ctx, dst mem.Ptr) {
	for i := 0; i < 4; i++ {
		buf := ctx.MustMalloc(64)
		ctx.Memcpy(p, dst, buf, 64)
		discard(ctx, buf)
	}
}
