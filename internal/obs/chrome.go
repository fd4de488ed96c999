package obs

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"mv2sim/internal/sim"
)

// ChromeTracer renders tasks in Chrome's trace_event JSON format —
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Every distinct Where becomes its own named thread track; counters
// become "C" events plotted as graphs. Because all timestamps are
// virtual and events are emitted in simulation order, the output is
// byte-for-byte identical across runs of the same program.
type ChromeTracer struct {
	tids  map[string]int
	order []string
	lines []string
}

// NewChromeTracer creates an empty Chrome trace collector.
func NewChromeTracer() *ChromeTracer {
	return &ChromeTracer{tids: map[string]int{}}
}

// chromePid is the single process all tracks live under; the simulation
// is one address space, so one pid keeps the Perfetto UI flat.
const chromePid = 1

// tid returns the stable track ID for a location, emitting the
// thread_name metadata event the first time the track is seen.
func (c *ChromeTracer) tid(where string) int {
	if id, ok := c.tids[where]; ok {
		return id
	}
	id := len(c.tids) + 1
	c.tids[where] = id
	c.order = append(c.order, where)
	c.lines = append(c.lines, fmt.Sprintf(
		`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
		chromePid, id, quote(where)))
	return id
}

// tsMicros renders a virtual time as microseconds with nanosecond
// precision, the unit trace_event expects.
func tsMicros(t sim.Time) string {
	return strconv.FormatFloat(float64(t)/1e3, 'f', 3, 64)
}

func quote(s string) string { return strconv.Quote(s) }

// TaskStart is a no-op: complete ("X") events are emitted at TaskEnd,
// when the duration is known.
func (c *ChromeTracer) TaskStart(Task) {}

// TaskStep emits a thread-scoped instant event at the milestone time.
func (c *ChromeTracer) TaskStep(t Task, what string) {
	c.lines = append(c.lines, fmt.Sprintf(
		`{"ph":"i","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"s":"t","args":{"id":%d}}`,
		chromePid, c.tid(t.Where), quote(what), quote(t.Kind), tsMicros(t.End), t.ID))
}

// TaskEnd emits the task: a complete ("X") event for spans, an instant
// ("i") event for zero-duration markers.
func (c *ChromeTracer) TaskEnd(t Task) {
	tid := c.tid(t.Where)
	var args strings.Builder
	fmt.Fprintf(&args, `"id":%d`, t.ID)
	if t.ParentID != 0 {
		fmt.Fprintf(&args, `,"parent":%d`, t.ParentID)
	}
	if t.Chunk >= 0 {
		fmt.Fprintf(&args, `,"chunk":%d`, t.Chunk)
	}
	if t.Bytes > 0 {
		fmt.Fprintf(&args, `,"bytes":%d`, t.Bytes)
	}
	if t.Instant() {
		c.lines = append(c.lines, fmt.Sprintf(
			`{"ph":"i","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"s":"t","args":{%s}}`,
			chromePid, tid, quote(t.What), quote(t.Kind), tsMicros(t.Start), args.String()))
		return
	}
	dur := strconv.FormatFloat(float64(t.End-t.Start)/1e3, 'f', 3, 64)
	c.lines = append(c.lines, fmt.Sprintf(
		`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"dur":%s,"args":{%s}}`,
		chromePid, tid, quote(t.What), quote(t.Kind), tsMicros(t.Start), dur, args.String()))
}

// TaskDepends serializes a dependency edge as a thread-scoped instant in
// category "dep" with args {task, on}: task t could not proceed before
// task `on` completed. Perfetto shows them as markers on the dependent
// task's track; cmd/pipedoctor re-ingests them to rebuild the transfer
// DAG from a trace file.
func (c *ChromeTracer) TaskDepends(t Task, onID uint64, label string) {
	c.lines = append(c.lines, fmt.Sprintf(
		`{"ph":"i","pid":%d,"tid":%d,"name":%s,"cat":"dep","ts":%s,"s":"t","args":{"task":%d,"on":%d}}`,
		chromePid, c.tid(t.Where), quote(label), tsMicros(t.Start), t.ID, onID))
}

// CounterSample emits a "C" counter event; Perfetto plots each counter
// name as a graph track.
func (c *ChromeTracer) CounterSample(name string, at sim.Time, value float64) {
	c.lines = append(c.lines, fmt.Sprintf(
		`{"ph":"C","pid":%d,"name":%s,"ts":%s,"args":{"value":%s}}`,
		chromePid, quote(name), tsMicros(at), strconv.FormatFloat(value, 'g', -1, 64)))
}

// Tracks returns the track names in first-seen order.
func (c *ChromeTracer) Tracks() []string { return append([]string(nil), c.order...) }

// Events returns the number of emitted trace events (excluding track
// metadata).
func (c *ChromeTracer) Events() int { return len(c.lines) - len(c.order) }

// WriteFile writes the complete trace JSON document to the file at path,
// creating or truncating it.
func (c *ChromeTracer) WriteFile(path string) error {
	return os.WriteFile(path, []byte(c.JSON()), 0o644)
}

// JSON returns the complete trace document as a string.
func (c *ChromeTracer) JSON() string {
	var sb strings.Builder
	sb.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	for i, l := range c.lines {
		sb.WriteString(l)
		if i != len(c.lines)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("]}\n")
	return sb.String()
}
