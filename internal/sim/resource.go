package sim

import "fmt"

// Resource models a server pool with fixed capacity and a FIFO wait queue.
// It is the building block for every contended piece of simulated hardware:
// a GPU copy engine (capacity 1), an InfiniBand link (capacity 1), a pool
// of DMA channels (capacity n).
//
// Ownership is handed off directly from Release to the head waiter, so a
// releasing process cannot barge back in front of queued waiters. A
// waiter is a process blocked in Acquire or a continuation queued by
// AcquireThen; both wait on a grant event, in one FIFO. A grant event
// goes back to a spare list once its Trigger has woken its waiter, so a
// contended resource allocates no event per wait.
type Resource struct {
	e     *Engine
	name  string
	cap   int
	inUse int
	queue fifo[*Event] // one wakeup event per waiter, FIFO
	spare []*Event     // fired grant events, re-armed by the next wait
	grant string       // name of the wakeup events, built on first wait

	// Stats.
	acquires   uint64 // slots granted, counted when a slot is taken or handed over
	maxQueue   int
	busyTime   Time // total slot-occupied time (integrated over slots)
	lastChange Time
}

// NewResource creates a resource with the given capacity (>0).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{e: e, name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse returns the number of currently occupied slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters (processes and continuations)
// queued to acquire.
func (r *Resource) QueueLen() int { return r.queue.len() }

func (r *Resource) accountChange() {
	r.busyTime += Time(int64(r.inUse) * int64(r.e.now-r.lastChange))
	r.lastChange = r.e.now
}

// Acquire blocks until a slot is free and takes it.
func (r *Resource) Acquire(p *Proc) {
	if !r.tryAcquire() {
		p.Wait(r.enqueue())
	}
}

// AcquireThen takes a slot for a continuation. If a slot is free, fn runs
// inline, just as Acquire returns without blocking. Otherwise fn queues
// behind the other waiters and, once Release hands it the slot, runs in
// the slot where a process blocked in Acquire at this point would resume.
func (r *Resource) AcquireThen(fn func()) {
	if r.tryAcquire() {
		fn()
		return
	}
	r.enqueue().Then(fn)
}

// enqueue appends one waiter's grant event to the FIFO.
func (r *Resource) enqueue() *Event {
	if r.grant == "" {
		r.grant = r.name + ".grant"
	}
	var ev *Event
	if n := len(r.spare); n > 0 {
		ev = r.spare[n-1]
		r.spare = r.spare[:n-1]
		ev.Reset(r.e, r.grant)
	} else {
		ev = r.e.NewEvent(r.grant)
	}
	r.queue.push(ev)
	if n := r.queue.len(); n > r.maxQueue {
		r.maxQueue = n
	}
	return ev
}

// tryAcquire takes a slot if one is immediately free and reports success.
func (r *Resource) tryAcquire() bool {
	if r.inUse < r.cap && r.queue.len() == 0 {
		r.accountChange()
		r.inUse++
		r.acquires++
		return true
	}
	return false
}

// Release frees one slot. If waiters are queued, the slot passes directly
// to the head waiter (the slot never becomes observably free in between).
// Release may be called from any context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.queue.len() > 0 {
		head := r.queue.pop()
		// inUse is unchanged: the slot moves from releaser to waiter.
		r.acquires++
		head.Trigger()
		// The waiter is woken — a resume or a call is scheduled — and
		// nothing refers to the event any more.
		r.spare = append(r.spare, head)
		return
	}
	r.accountChange()
	r.inUse--
}

// Utilization returns the mean fraction of capacity occupied between the
// start of the simulation and now.
func (r *Resource) Utilization() float64 {
	if r.e.now == 0 {
		return 0
	}
	busy := r.busyTime + Time(int64(r.inUse)*int64(r.e.now-r.lastChange))
	return float64(busy) / float64(int64(r.cap)*int64(r.e.now))
}

// Stats returns a short human-readable statistics line.
func (r *Resource) Stats() string {
	return fmt.Sprintf("%s: cap=%d acquires=%d maxQueue=%d util=%.1f%%",
		r.name, r.cap, r.acquires, r.maxQueue, 100*r.Utilization())
}
