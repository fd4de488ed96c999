// Package obs is a golden-test stub of the real internal/obs.
package obs

// Task is one traced unit of work.
type Task struct {
	ID    uint64
	Kind  string
	Where string
}

// Tracer consumes task records.
type Tracer interface {
	TaskStart(t Task)
	TaskStep(t Task, what string)
	TaskEnd(t Task)
	CounterSample(name string, value float64)
}

// Hub fans task records out to tracers.
type Hub struct{ tr Tracer }

// Span is an open task handle.
type Span struct{ hub *Hub }

// Start opens a task.
func (h *Hub) Start(kind, where string, chunk, bytes int) Span {
	h.tr.TaskStart(Task{Kind: kind, Where: where})
	return Span{hub: h}
}

// StartTask opens a task with a distinct What label.
func (h *Hub) StartTask(kind, what, where string, chunk, bytes int) Span {
	return h.Start(kind, where, chunk, bytes)
}

// StartChild opens a task parented to another span's task.
func (h *Hub) StartChild(parent Span, kind, where string, chunk, bytes int) Span {
	return h.Start(kind, where, chunk, bytes)
}

// Instant records a zero-duration task.
func (h *Hub) Instant(kind, where string, chunk, bytes int) { h.tr.TaskEnd(Task{Kind: kind}) }

// Counter records a gauge sample.
func (h *Hub) Counter(name string, value float64) { h.tr.CounterSample(name, value) }

// Enabled reports whether any tracer is attached.
func (h *Hub) Enabled() bool { return h != nil }

// Active reports whether the span is recording.
func (sp Span) Active() bool { return sp.hub != nil }

// Task returns the span's task record so far.
func (sp Span) Task() Task { return Task{} }

// Step records an intermediate step.
func (sp Span) Step(what string) { sp.hub.tr.TaskStep(Task{}, what) }

// End closes the task.
func (sp Span) End() { sp.hub.tr.TaskEnd(Task{}) }
