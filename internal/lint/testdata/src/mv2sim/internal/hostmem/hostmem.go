// Package hostmem is a golden-test stub of the real internal/hostmem.
package hostmem

import "mv2sim/internal/sim"

// Vbuf is one staging chunk.
type Vbuf struct{}

// Pool is a set of staging chunks.
type Pool struct{}

// Get blocks p until a vbuf is free.
func (p *Pool) Get(proc *sim.Proc) *Vbuf { return &Vbuf{} }

// GetRail is Get accounted to a rail.
func (p *Pool) GetRail(proc *sim.Proc, rail int) *Vbuf { return &Vbuf{} }

// GetThen hands a vbuf to fn in engine context.
func (p *Pool) GetThen(fn func(*Vbuf)) {}

// GetRailThen is GetThen accounted to a rail.
func (p *Pool) GetRailThen(rail int, fn func(*Vbuf)) {}

// TryGet takes a vbuf if one is free.
func (p *Pool) TryGet() (*Vbuf, bool) { return nil, false }

// Put returns a vbuf.
func (p *Pool) Put(v *Vbuf) {}
