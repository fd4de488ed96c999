// Package hostmem is a golden-test stub of the real internal/hostmem.
package hostmem

import (
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Vbuf is one staging chunk.
type Vbuf struct{ span obs.Span }

// Pool is a set of staging chunks.
type Pool struct{ vbuf *sim.Event }

// Get blocks p until a vbuf is free.
func (p *Pool) Get(proc *sim.Proc) *Vbuf { return p.GetRail(proc, 0) }

// GetRail is Get accounted to a rail.
func (p *Pool) GetRail(proc *sim.Proc, rail int) *Vbuf {
	proc.Wait(p.vbuf)
	return &Vbuf{}
}

// GetThen hands a vbuf to fn in engine context.
func (p *Pool) GetThen(fn func(*Vbuf)) { p.GetRailThen(0, fn) }

// GetRailThen is GetThen accounted to a rail: a blocked request keeps fn
// in a getter that the next Put wakes.
func (p *Pool) GetRailThen(rail int, fn func(*Vbuf)) {
	g := &getter{fn: fn}
	g.retryFn = g.retry
	p.vbuf.Then(g.retryFn)
}

// getter is a blocked GetRailThen.
type getter struct {
	fn      func(*Vbuf)
	retryFn func()
}

func (g *getter) retry() { g.fn(&Vbuf{}) }

// TryGet takes a vbuf if one is free.
func (p *Pool) TryGet() (*Vbuf, bool) { return nil, false }

// Put returns a vbuf and ends its hold.
func (p *Pool) Put(v *Vbuf) { v.span.End() }
