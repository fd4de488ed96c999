package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"mv2sim/internal/load"
)

// runSmall runs a workload at test scale with no time budget beyond the
// minimum op count.
func runSmall(t *testing.T, name string, seed int64, afterRun func(op)) *report {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	b := &bench{w: w, sc: smallScale, seed: seed, log: io.Discard, afterRun: afterRun}
	return b.run()
}

// smallReports runs every workload once at test scale, shared by the
// tests that only read reports.
var smallReports = map[string]*report{}

func reportFor(t *testing.T, name string) *report {
	t.Helper()
	if r, ok := smallReports[name]; ok {
		return r
	}
	r := runSmall(t, name, 1, nil)
	if r.Failed > 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, r.Failed, r.Attempted, r.Failures)
	}
	smallReports[name] = r
	return r
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog the program reports from in step: same workloads, metrics,
// units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better() || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %s %s %s %g", i, got, d.name, d.unit, d.better(), d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better() {
			t.Errorf("per_layer[%d] = %+v, catalog %s %s %s", i, got, d.name, d.unit, d.better())
		}
	}
}

// TestEveryMetricEmitted checks that each workload's result line carries
// every metric BENCHMARK.json names, with its unit, for both trace modes.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		rep := reportFor(t, w.name)
		for trace, set := range [][]metricDef{endToEnd, perLayer} {
			var buf bytes.Buffer
			if err := printResult(&buf, rep, trace); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(set) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(set))
			}
			for _, d := range set {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.name, trace, d.name, v, d.unit)
				}
				if trace == 0 && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
		}
	}
}

// virtualOf keeps a report's metrics the transport model decides.
func virtualOf(rep *report) map[string]float64 {
	out := map[string]float64{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.virtual {
				out[d.name] = rep.Metrics[d.name].Median
			}
		}
	}
	return out
}

// TestSameSeedSameVirtualMetrics runs each workload twice with one seed:
// every virtual-clock metric and model count must repeat exactly.
func TestSameSeedSameVirtualMetrics(t *testing.T) {
	for _, w := range workloads {
		a := virtualOf(reportFor(t, w.name))
		b := virtualOf(runSmall(t, w.name, 1, nil))
		if !maps.Equal(a, b) {
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %s = %v then %v", w.name, k, v, b[k])
				}
			}
		}
	}
}

// TestSeedChangesLoadSchedule: the seed drives the arrivals, and op 0 of
// a run replays exactly the schedule cmd/loadgen draws for that seed.
func TestSeedChangesLoadSchedule(t *testing.T) {
	a := newLoadOp(loadSeed(1, 0), 6000, 300)
	b := newLoadOp(loadSeed(2, 0), 6000, 300)
	if slices.Equal(a.sched[0], b.sched[0]) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if c := newLoadOp(loadSeed(1, 1), 6000, 300); slices.Equal(a.sched[0], c.sched[0]) {
		t.Error("ops 0 and 1 of a run replay the same schedule")
	}
	cfg := a.cfg
	cfg.Seed = 1
	for p := range a.sched {
		if !slices.Equal(a.sched[p], load.Schedule(cfg, p)) {
			t.Errorf("pair %d: op 0 schedule differs from load.Schedule at seed 1", p)
		}
	}
}

// TestBrokenOpsFail injects a fault after every run, a corrupted receive
// buffer or a device buffer nobody frees: each op must fail its checks,
// and the run must report it.
func TestBrokenOpsFail(t *testing.T) {
	for name, fault := range map[string]func(v *vectorOp){
		"corrupt": func(v *vectorOp) { v.buf[1].Add(v.pitch).Bytes(1)[0] ^= 0xff }, // second row's first byte
		"leak": func(v *vectorOp) {
			if _, err := v.ctxs[0].Malloc(64); err != nil {
				t.Fatal(err)
			}
		},
	} {
		rep := runSmall(t, "vector-4m", 1, func(o op) { fault(o.(*vectorOp)) })
		if rep.Failed != rep.Attempted {
			t.Errorf("%s: %d of %d broken ops failed: %v", name, rep.Failed, rep.Attempted, rep.Failures)
		}
		var buf bytes.Buffer
		if err := printResult(&buf, rep, 0); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"correct":false`) {
			t.Errorf("%s: result line does not report the failure: %s", name, buf.String())
		}
	}
}

// TestPhasesAddUpToWall: the host phases account for an op's wall time.
func TestPhasesAddUpToWall(t *testing.T) {
	for _, w := range workloads {
		m := reportFor(t, w.name).Metrics
		sum := m["datatype.build_s"].Median + m["setup_s"].Median + m["sim.run_s"].Median + m["verify.check_s"].Median
		if wall := m["host.wall_s"].Median; math.Abs(sum-wall) > 0.05*wall {
			t.Errorf("%s: phases sum to %.6fs, wall %.6fs", w.name, sum, wall)
		}
	}
}

func TestNearestRank(t *testing.T) {
	// 1..1000 in scrambled order: the p-th percentile is the sample at
	// rank ceil(p/100*n).
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i*7919)%1000 + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 500, true},
		{99, 990, true},     // 10 samples lie beyond rank 990
		{99.5, 995, false},  // only 5 beyond
		{99.9, 999, false},  // only 1 beyond
		{0.1, 1, true},      // the minimum
		{100, 1000, false},  // the maximum
		{33.3, 333, true},   // ceil(333.0)
		{33.35, 334, true},  // ceil(333.5)
		{98.95, 990, true},  // ceil(989.5)
		{98.9, 989, true},   // exact rank
		{99.05, 991, false}, // ceil(990.5): 9 beyond
	} {
		got, ok := nearestRank(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g = %v (ok %v), want %v (ok %v)", c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := nearestRank(nil, 50); ok {
		t.Error("percentile of no samples reported as resolved")
	}
	if got := tail(xs[:100], 99); got != "p99=- (n=100)" {
		t.Errorf("unresolved tail prints %q", got)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if s := summarize(xs); s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if s := summarize([]float64{4}); s.Q1 != 4 || s.Q3 != 4 || s.Median != 4 {
		t.Errorf("summarize of one sample = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "wall_cal", bound: 0.10}
	higher := metricDef{name: "sim_events_per_cal", higher: true, bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 20} }
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, tight(1), tight(1.05), withinBound},
		{lower, tight(1), tight(1.2), worse},
		{lower, tight(1), tight(0.8), better},
		{higher, tight(1), tight(0.8), worse},
		{higher, tight(1), tight(1.2), better},
		{lower, tight(1), summary{Median: 1.2, Q1: 1, Q3: 1.4, N: 20}, unresolved},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
