// Package sim is a golden-test stub of the real internal/sim.
package sim

// Time is simulated time.
type Time int64

// Engine is the simulation scheduler.
type Engine struct{}

// Proc is a simulated process.
type Proc struct{}

// Event is a one-shot condition.
type Event struct{ fired bool }

// Resource is a counted resource.
type Resource struct{ grant *Event }

// Queue is a blocking queue.
type Queue struct{}

// New creates an engine.
func New() *Engine { return &Engine{} }

// NewEvent creates an event.
func (e *Engine) NewEvent(name string) *Event { return &Event{} }

// CallAt schedules fn at time t in engine context.
func (e *Engine) CallAt(t Time, fn func()) {}

// CallAfter schedules fn after d in engine context.
func (e *Engine) CallAfter(d Time, fn func()) {}

// Spawn starts a process: a scheduled call runs fn as the process body.
func (e *Engine) Spawn(name string, fn func(p *Proc)) {
	e.CallAt(0, func() { fn(&Proc{}) })
}

// Run runs the simulation.
func (e *Engine) Run() error { return nil }

// Shutdown stops the engine.
func (e *Engine) Shutdown() {}

// NewResource creates a resource.
func (e *Engine) NewResource(name string, n int) *Resource { return &Resource{} }

// NewQueue creates a queue.
func (e *Engine) NewQueue(name string) *Queue { return &Queue{} }

// Wait blocks on an event.
func (p *Proc) Wait(ev *Event) {}

// WaitAll blocks on all events.
func (p *Proc) WaitAll(evs ...*Event) {}

// WaitAny blocks until one of the events fires.
func (p *Proc) WaitAny(evs ...*Event) int { return 0 }

// block hands control back to the engine.
func (p *Proc) block() {}

// Sleep blocks for d.
func (p *Proc) Sleep(d Time) {}

// Now returns current time.
func (p *Proc) Now() Time { return 0 }

// Trigger fires the event.
func (ev *Event) Trigger() {}

// Fired reports whether the event fired.
func (ev *Event) Fired() bool { return ev.fired }

// OnTrigger registers an engine-context callback.
func (ev *Event) OnTrigger(fn func()) {}

// Then queues an engine-context continuation.
func (ev *Event) Then(fn func()) {}

// Acquire takes n units, blocking p.
func (r *Resource) Acquire(p *Proc, n int) { p.Wait(r.grant) }

// AcquireThen runs fn in engine context once a unit is granted.
func (r *Resource) AcquireThen(fn func()) { r.grant.Then(fn) }

// Release returns n units.
func (r *Resource) Release(n int) {}

// Get blocks p until an item arrives.
func (q *Queue) Get(p *Proc) interface{} {
	p.block()
	return nil
}

// GetThen hands the next item to fn in engine context.
func (q *Queue) GetThen(fn func(interface{})) {}

// Put enqueues an item.
func (q *Queue) Put(v interface{}) {}
