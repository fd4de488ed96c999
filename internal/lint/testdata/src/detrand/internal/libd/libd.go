// Package libd holds golden cases for the detrand analyzer: the import
// path contains /internal/, so the determinism rules apply.
package libd

import (
	"fmt"
	"math/rand" // want `math/rand in simulator library code makes runs nondeterministic`
	"sort"
	"time"

	"mv2sim/internal/hostmem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Positive (rule 1): the loop body records obs instants, so the emit
// order follows the randomized map order.
func emitPerKey(h *obs.Hub, sizes map[string]int) {
	for name, n := range sizes { // want `map iteration order is randomized per run but this loop drives sim-visible work`
		h.Instant(name, "rank0.mpi", -1, n)
	}
}

// Positive (rule 1, transitive): the helper reaches sim-visible state
// through its body, which the SimVisible fact proves.
func emitViaHelper(h *obs.Hub, sizes map[string]int) {
	for name, n := range sizes { // want `map iteration order is randomized per run but this loop drives sim-visible work`
		record(h, name, n)
	}
}

func record(h *obs.Hub, name string, n int) {
	h.Instant(name, "rank0.mpi", -1, n)
}

// Positive (rule 1, through a package that is not linted): Pool.Put
// ends the vbuf's hold span in hostmem, which is loaded only as a
// dependency. The message names the in-tree hop and the root it reaches.
func returnAll(pool *hostmem.Pool, held map[int]*hostmem.Vbuf) {
	for _, v := range held { // want `sim-visible work \(hostmem\.Pool\.Put → obs\.Span\.End\);`
		pool.Put(v)
	}
}

// Positive (rule 1, closure): one level of local closures is inlined.
func emitViaClosure(h *obs.Hub, sizes map[string]int) {
	emit := func(name string, n int) {
		h.Instant(name, "rank0.mpi", -1, n)
	}
	for name, n := range sizes { // want `map iteration order is randomized per run but this loop drives sim-visible work`
		emit(name, n)
	}
}

// Positive (rule 1, printing): emit order is output order.
func dump(sizes map[string]int) {
	for name, n := range sizes { // want `map iteration order is randomized per run but this loop drives sim-visible work`
		fmt.Println(name, n)
	}
}

// Positive (rule 2): the slice keeps the randomized key order and is
// never repaired.
func collectKeys(sizes map[string]int) []string {
	var names []string
	for name := range sizes { // want `map iteration appends to names in randomized order and names is never sorted afterwards`
		names = append(names, name)
	}
	return names
}

// Negative (rule 2): the canonical sorted-keys idiom.
func sortedKeys(sizes map[string]int) []string {
	var names []string
	for name := range sizes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Negative: order-insensitive aggregation.
func total(sizes map[string]int) int {
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	return sum
}

// Negative: building another map is order-insensitive.
func invert(sizes map[string]int) map[int]string {
	out := make(map[int]string, len(sizes))
	for name, n := range sizes {
		out[n] = name
	}
	return out
}

// Negative: ranging over a slice is deterministic, sim-visible work and
// all.
func emitSlice(h *obs.Hub, names []string) {
	for i, name := range names {
		h.Instant(name, "rank0.mpi", -1, i)
	}
}

// Positive (rule 3): host clock.
func stamp() int64 {
	t := time.Now() // want `time.Now reads the host clock in simulator library code`
	return t.UnixNano()
}

// Negative: duration arithmetic never reads the clock.
func window(d time.Duration) time.Duration {
	return 2 * d
}

// Positive (rule 5): raw goroutine.
func spawnRaw(f func()) {
	go f() // want `go statement in simulator library code`
}

// Worker-pool carve-out (rule 5): the spawn is a go statement like any
// other, but the documented //lint:ignore claims the sanctioned pattern —
// workers that only execute barrier-joined task bodies — mirroring the
// baton-passing exemption in the real engine. No finding survives the
// directive (the suppress tree proves the directive is load-bearing).
func spawnPool(work chan func()) {
	for i := 0; i < 4; i++ {
		//lint:ignore detrand pool workers only execute barrier-joined task bodies
		go drainPool(work)
	}
}

func drainPool(work chan func()) {
	for f := range work {
		f()
	}
}

// Negative: engine-scheduled concurrency.
func spawnSim(e *sim.Engine) {
	e.Spawn("worker", func(p *sim.Proc) {
		p.Sleep(1)
	})
}

// Positive (rule 1): CallAt is sim-visible scheduling.
func flushCalls(e *sim.Engine, sizes map[string]int) {
	for _, n := range sizes { // want `map iteration order is randomized per run but this loop drives sim-visible work`
		n := n
		e.CallAt(sim.Time(n), func() {})
	}
}

// Only the import above is flagged for math/rand (rule 4); call sites are
// not re-reported.
func jitter() int {
	return rand.Int()
}
