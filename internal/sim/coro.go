//go:build go1.23

// This file needs language version go1.23 for iter.Pull. The build
// constraint raises the version for this file alone, so go.mod (and the
// benchmark module that replaces this one) can stay at go 1.22.

package sim

import "iter"

// carrier is a pooled coroutine that runs Proc bodies one after another.
// The engine resumes it with next; the running body hands control back
// with yield, which on the coroutine switch goes straight to the waiting
// dispatch goroutine instead of through the Go scheduler. When a body
// returns, the carrier parks on the engine's idle list and the next
// SpawnAt reuses it, so a simulation needs as many carriers as it has
// processes alive at once, not one goroutine per spawn.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // process assigned to this carrier; nil while idle

	// stopped is set once Shutdown's stop made yield return false. From
	// then on every block panics with shutdownPanic and no lifecycle
	// output is emitted.
	stopped bool
}

// shutdownPanic is what a blocked body panics with when Shutdown stops
// its carrier. The body's deferred calls run during the unwinding and the
// carrier recovers the panic.
type shutdownPanic struct{}

// carrier takes an idle carrier, or creates one the first time.
func (e *Engine) carrier() *carrier {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	e.carriers = append(e.carriers, c)
	return c
}

// loop is the coroutine body: run the assigned process, park idle until
// the next process is assigned and resumed, repeat until stopped.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() && yield(struct{}{}) {
	}
}

// run executes the assigned process to completion and puts the carrier
// back on the idle list. It reports false if Shutdown stopped the body.
func (c *carrier) run() bool {
	p := c.p
	e := p.e
	e.trace("proc", p.name, "start")
	c.body(p)
	if c.stopped {
		return false
	}
	e.trace("proc", p.name, "done")
	p.done = true
	c.p = nil
	e.idle = append(e.idle, c)
	return true
}

// body calls the process function. A panic is stored for runProc to
// re-raise on the dispatch goroutine; after Shutdown every panic,
// shutdownPanic included, ends the body silently.
func (c *carrier) body(p *Proc) {
	defer func() {
		if r := recover(); r != nil && !c.stopped {
			p.panicked = r
		}
	}()
	p.fn(p)
}

// block hands control back to the engine until it resumes this process.
// why and on are kept for deadlock diagnostics.
func (p *Proc) block(why string, on waitable) {
	p.why, p.on = why, on
	if !p.c.yield(struct{}{}) {
		p.c.stopped = true
		panic(shutdownPanic{})
	}
}
