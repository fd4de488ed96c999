package critpath_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/osu"
	"mv2sim/internal/sim"
)

// runTransfer runs one pipetrace-style 2-GPU vector transfer (pitch 16)
// with the collector and a Chrome tracer attached and returns both.
func runTransfer(t testing.TB, msg, rails int, mode core.PackMode) (*critpath.Collector, *obs.ChromeTracer) {
	t.Helper()
	col := critpath.NewCollector()
	chrome := obs.NewChromeTracer()
	cfg := cluster.Config{Rails: rails, Tracers: []obs.Tracer{col, chrome}}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = mode
	if _, err := osu.VectorTransfer(msg, 16, cfg); err != nil {
		t.Fatal(err)
	}
	return col, chrome
}

// render is the full doctor report for one analysis, used by the golden
// determinism test.
func render(a *critpath.Analysis) string {
	var sb strings.Builder
	sb.WriteString(a.BreakdownTable("breakdown").String())
	if m, ok := a.Model(); ok {
		sb.WriteString(m.ModelTable("model").String())
	}
	sb.WriteString(a.PathTable("path").String())
	return sb.String()
}

// TestGoldenDeterminism pins the doctor's behavior on the standard
// pinned pipeline run (1 MB vector, pitch 16, memcpy2d — the same
// configuration as the committed pipetrace golden): two independent runs
// must render byte-identical reports, and the headline numbers must stay
// pinned.
func TestGoldenDeterminism(t *testing.T) {
	colA, _ := runTransfer(t, 1<<20, 1, core.PackModeMemcpy2D)
	colB, _ := runTransfer(t, 1<<20, 1, core.PackModeMemcpy2D)
	asA, asB := colA.Analyze(), colB.Analyze()
	if len(asA) != 1 || len(asB) != 1 {
		t.Fatalf("transfers analyzed: %d and %d, want 1 and 1", len(asA), len(asB))
	}
	a, b := asA[0], asB[0]
	if got, want := render(a), render(b); got != want {
		t.Fatalf("reports differ between identical runs:\n--- A\n%s\n--- B\n%s", got, want)
	}

	// Headline pins: the 1 MB pipetrace run completes at 2931.5us (the
	// committed golden's final unpack stamp); the transfer recv request
	// spans slightly longer. 16 chunks of 64 KB; pack-bound under memcpy2d.
	if a.Chunks != 16 {
		t.Errorf("chunks = %d, want 16", a.Chunks)
	}
	if !a.Exact() {
		t.Errorf("attribution sum %d != wall %d", a.Sum(), a.Wall())
	}
	m, ok := a.Model()
	if !ok {
		t.Fatal("no model for a chunked transfer")
	}
	if m.Bottleneck != critpath.BucketPack {
		t.Errorf("bottleneck = %q, want pack", m.Bottleneck)
	}
	if m.Flagged {
		t.Errorf("pinned config flagged divergent: %v", m)
	}
	if m.Divergence > 0.10 || m.Divergence < -0.10 {
		t.Errorf("divergence %.3f outside 10%%", m.Divergence)
	}
}

// TestIngestRoundTrip verifies that analyzing a re-ingested Chrome trace
// reproduces the live analysis exactly.
func TestIngestRoundTrip(t *testing.T) {
	col, chrome := runTransfer(t, 1<<20, 2, core.PackModeKernel)
	ingested, err := critpath.Ingest(strings.NewReader(chrome.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	live, replay := col.Analyze(), ingested.Analyze()
	if len(live) != len(replay) {
		t.Fatalf("live analyzed %d transfers, replay %d", len(live), len(replay))
	}
	for i := range live {
		if got, want := render(replay[i]), render(live[i]); got != want {
			t.Errorf("transfer %d: replayed report differs:\n--- live\n%s\n--- replay\n%s", i, want, got)
		}
	}
}

// TestAttributionProperties is the property test over the configuration
// space: for every (size, rails, pack mode) combination the attribution
// must sum exactly to the wall clock and the critical path must be a valid
// DAG path — time-ordered, non-overlapping, with every step's gap buckets
// summing to its gap.
func TestAttributionProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	sizes := []int{64 << 10, 256 << 10, 1 << 20}
	railses := []int{1, 2, 4}
	modes := []core.PackMode{core.PackModeMemcpy2D, core.PackModeKernel, core.PackModeAuto, core.PackModeNic}

	type key struct {
		size, rails int
		mode        core.PackMode
	}
	cache := map[key]*critpath.Analysis{}
	analyze := func(k key) *critpath.Analysis {
		if a, ok := cache[k]; ok {
			return a
		}
		col, _ := runTransfer(t, k.size, k.rails, k.mode)
		as := col.Analyze()
		if len(as) != 1 {
			t.Fatalf("%+v: analyzed %d transfers, want 1", k, len(as))
		}
		cache[k] = as[0]
		return as[0]
	}

	prop := func(si, ri, mi uint8) bool {
		k := key{
			size:  sizes[int(si)%len(sizes)],
			rails: railses[int(ri)%len(railses)],
			mode:  modes[int(mi)%len(modes)],
		}
		a := analyze(k)
		if !a.Exact() {
			t.Errorf("%+v: attribution sum %d != wall %d", k, a.Sum(), a.Wall())
			return false
		}
		return validPath(t, fmt.Sprintf("%+v", k), a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// validPath checks the critical-path invariants.
func validPath(t *testing.T, label string, a *critpath.Analysis) bool {
	ok := true
	seen := map[uint64]bool{}
	for i, s := range a.Path {
		if seen[s.Task.ID] {
			t.Errorf("%s: step %d repeats task %d", label, i, s.Task.ID)
			ok = false
		}
		seen[s.Task.ID] = true
		if s.Task.End < s.Task.Start {
			t.Errorf("%s: step %d runs backwards", label, i)
			ok = false
		}
		var gapSum sim.Time
		for _, v := range s.GapBuckets {
			gapSum += v
		}
		if gapSum != s.Gap && !(s.Gap <= 0 && gapSum == 0) {
			t.Errorf("%s: step %d gap buckets sum %d != gap %d", label, i, gapSum, s.Gap)
			ok = false
		}
		if i == 0 {
			continue
		}
		prev := a.Path[i-1]
		// A valid DAG path: the binding predecessor completed before the
		// dependent step started.
		if prev.Task.End > s.Task.Start {
			t.Errorf("%s: step %d starts at %d before predecessor ends at %d",
				label, i, s.Task.Start, prev.Task.End)
			ok = false
		}
		if s.Gap != s.Task.Start-prev.Task.End {
			t.Errorf("%s: step %d gap %d != start-prevEnd %d",
				label, i, s.Gap, s.Task.Start-prev.Task.End)
			ok = false
		}
	}
	return ok
}
