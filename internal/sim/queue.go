package sim

// Queue is an unbounded FIFO mailbox carrying values of type T between
// simulation contexts. Put never blocks; Get blocks the calling process
// until an item is available, and GetThen is its continuation form.
// Items are delivered in insertion order and waiters are served in
// arrival order.
//
// Queues are the message-passing primitive between simulated processes,
// e.g. a NIC delivering packets to an MPI progress handler.
type Queue[T any] struct {
	e       *Engine
	name    label
	items   fifo[T]
	waiters fifo[getWaiter[T]] // blocked Gets and GetThens, in arrival order
	woken   fifo[func(T)]      // GetThens a Put has woken, in wake order
	takeFn  func()             // take, bound on the first blocked GetThen

	puts, gets uint64
	maxLen     int
}

// getWaiter is one party waiting for an item: a process blocked in Get,
// or a continuation queued by GetThen.
type getWaiter[T any] struct {
	p  *Proc
	fn func(T)
}

// NewQueue creates an empty queue. The type parameter is chosen by the
// caller: sim.NewQueue[*packet](e, "nic0.rx").
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{e: e, name: label{prefix: name}}
}

// NewQueueNumbered creates an empty queue named prefix, then n in
// decimal, then suffix. The name is formatted only when something reads
// it, so a per-message queue costs no string.
func NewQueueNumbered[T any](e *Engine, prefix string, n int, suffix string) *Queue[T] {
	return &Queue[T]{e: e, name: label{prefix: prefix, n: n, num: true, suffix: suffix}}
}

// Reuse renames q, an empty queue nothing waits on, as prefix, then n in
// decimal, then suffix, and clears its counters, keeping its storage: a
// queue per message can come from a free list. Reusing a queue that
// still holds items or waiters panics.
func (q *Queue[T]) Reuse(prefix string, n int, suffix string) {
	if q.items.len() > 0 || q.waiters.len() > 0 || q.woken.len() > 0 {
		panic("sim: reuse of queue " + q.name.String() + " with items or waiters")
	}
	q.name = label{prefix: prefix, n: n, num: true, suffix: suffix}
	q.puts, q.gets, q.maxLen = 0, 0, 0
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name.String() }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends v and wakes the oldest waiter, if any. It may be called from
// any context.
//
// A wakeup is reported to the tracer as the firing of an event
// named "<queue>.get", and is scheduled exactly as that event's Trigger
// would schedule it.
func (q *Queue[T]) Put(v T) {
	q.items.push(v)
	q.puts++
	if n := q.items.len(); n > q.maxLen {
		q.maxLen = n
	}
	if q.waiters.len() > 0 {
		w := q.waiters.pop()
		if q.e.tracer != nil {
			q.e.fired(label{prefix: q.waitName()})
		}
		if w.p != nil {
			w.p.scheduleResume(q.e.now)
			return
		}
		q.woken.push(w.fn)
		q.e.CallAt(q.e.now, q.takeFn)
	}
}

// Get removes and returns the head item, blocking while the queue is empty.
//
// Wakeups are one-per-Put, and each woken waiter either consumes an item or
// (if a non-waiting Get at the same instant took it first) re-registers and
// blocks again, so no wakeup is ever lost.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(getWaiter[T]{p: p})
		p.block("wait", q)
	}
	q.gets++
	return q.items.pop()
}

// GetThen is Get for a continuation in engine context: fn receives the
// head item — at once when the queue has one, otherwise in the slot where
// a process blocked in Get would resume, after the same "<queue>.get"
// firing. Like Get, a woken GetThen that finds the queue empty again
// waits again, at the back.
func (q *Queue[T]) GetThen(fn func(T)) {
	if q.items.len() == 0 {
		if q.takeFn == nil {
			q.takeFn = q.take
		}
		q.waiters.push(getWaiter[T]{fn: fn})
		return
	}
	q.gets++
	fn(q.items.pop())
}

// take is the scheduled wake-up of the oldest woken GetThen.
func (q *Queue[T]) take() { q.GetThen(q.woken.pop()) }

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	q.gets++
	return q.items.pop(), true
}

func (q *Queue[T]) waitName() string { return q.name.String() + ".get" }

// fifo is a slice-backed FIFO that keeps its storage: pop advances a head
// index and rewinds to the start of the array whenever the FIFO drains,
// so a queue used in lockstep never reallocates.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head >= len(f.buf)/2 {
		// Slide the live items down rather than grow past a dead prefix
		// that is at least as long as they are.
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes the head item; the FIFO must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero // release the reference for GC
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}
