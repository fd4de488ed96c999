package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// This file flattens the repo's BENCH_*.json snapshot formats into store
// records, one record per metric. Virtual-time metrics (simulated
// latencies, virtual bandwidths) get a direction and are gate-able;
// context such as model divergence and break-even rows is recorded as
// informational — it rides along in the trajectory plots but never fails
// the gate.

// Extract sniffs which BENCH format the document is and flattens it.
// The returned source is one of "repro", "pack", "critpath", "load".
// Records come back sorted by metric key, so extraction is deterministic
// regardless of JSON map order.
func Extract(data []byte) (source string, recs []Record, err error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", nil, fmt.Errorf("store: parse bench file: %w", err)
	}
	switch {
	case probe["figure5b_latency_us"] != nil:
		recs, err = ExtractRepro(data)
		source = "repro"
	case probe["pitch_factor"] != nil && probe["grid"] != nil:
		recs, err = ExtractPack(data)
		source = "pack"
	case probe["results"] != nil:
		recs, err = ExtractCritpath(data)
		source = "critpath"
	case probe["load_schema"] != nil:
		recs, err = ExtractLoad(data)
		source = "load"
	default:
		return "", nil, fmt.Errorf("store: unrecognized bench file (keys: %s)", strings.Join(sortedKeys(probe), ", "))
	}
	if err != nil {
		return "", nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Metric < recs[j].Metric })
	return source, recs, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reproBench mirrors the subset of cmd/repro's BENCH_repro.json the store
// tracks.
type reproBench struct {
	Figure5bLatencyUs  map[string]map[string]float64 `json:"figure5b_latency_us"`
	Stencil2DMedianSec map[string][]struct {
		Grid  string  `json:"grid"`
		NCSec float64 `json:"nc_sec"`
	} `json:"stencil2d_median_sec"`
	Pipedoctor4MB struct {
		WallUs float64 `json:"wall_us"`
	} `json:"pipedoctor_4mb"`
	RailsBandwidthMBs map[string]float64 `json:"rails_bandwidth_mbs"`
}

// ExtractRepro flattens BENCH_repro.json: the Figure 5(b) virtual latency
// curves, the Stencil2D NC medians and the 4 MB pipedoctor wall clock,
// all gate-able lower-is-better, and the multi-rail virtual bandwidths,
// gate-able higher-is-better.
func ExtractRepro(data []byte) ([]Record, error) {
	var b reproBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("store: parse repro bench: %w", err)
	}
	var recs []Record
	for _, series := range sortedKeys(b.Figure5bLatencyUs) {
		pts := b.Figure5bLatencyUs[series]
		for _, size := range sortedKeys(pts) {
			recs = append(recs, Record{
				Source: "repro",
				Metric: fmt.Sprintf("repro.figure5b.%s.%s_us", series, size),
				Unit:   "us", Better: BetterLower, Value: pts[size],
			})
		}
	}
	for _, prec := range sortedKeys(b.Stencil2DMedianSec) {
		for _, row := range b.Stencil2DMedianSec[prec] {
			grid := row.Grid
			if i := strings.IndexByte(grid, ' '); i > 0 {
				grid = grid[:i] // "1x8 (64Kx1K)" -> "1x8"
			}
			recs = append(recs, Record{
				Source: "repro",
				Metric: fmt.Sprintf("repro.stencil2d.%s.%s.nc_sec", prec, grid),
				Unit:   "s", Better: BetterLower, Value: row.NCSec,
			})
		}
	}
	if b.Pipedoctor4MB.WallUs > 0 {
		recs = append(recs, Record{
			Source: "repro",
			Metric: "repro.pipedoctor_4mb.wall_us",
			Unit:   "us", Better: BetterLower, Value: b.Pipedoctor4MB.WallUs,
		})
	}
	for _, k := range sortedKeys(b.RailsBandwidthMBs) {
		recs = append(recs, Record{
			Source: "repro",
			Metric: fmt.Sprintf("repro.rails_bandwidth_mbs.%s", k),
			Unit:   "MB/s", Better: BetterHigher, Value: b.RailsBandwidthMBs[k],
		})
	}
	return recs, nil
}

// packBench mirrors osu.CrossoverResult.
type packBench struct {
	Grid []struct {
		Rows     int     `json:"rows"`
		RowBytes int     `json:"row_bytes"`
		AutoUs   float64 `json:"auto_us"`
		Auto     string  `json:"auto"`
		Best     string  `json:"best"`
	} `json:"grid"`
	BreakEvenRows map[string]float64 `json:"break_even_rows"`
}

// ExtractPack flattens BENCH_pack.json: the auto-engine latency of every
// crossover grid point (lower-better, virtual), the count of points where
// auto picked the slower engine (lower-better), and the per-width
// break-even rows as informational context.
func ExtractPack(data []byte) ([]Record, error) {
	var b packBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("store: parse pack bench: %w", err)
	}
	var recs []Record
	mismatches := 0
	for _, pt := range b.Grid {
		recs = append(recs, Record{
			Source: "pack",
			Metric: fmt.Sprintf("pack.crossover.%dx%d.auto_us", pt.Rows, pt.RowBytes),
			Unit:   "us", Better: BetterLower, Value: pt.AutoUs,
		})
		if pt.Auto != pt.Best {
			mismatches++
		}
	}
	recs = append(recs, Record{
		Source: "pack",
		Metric: "pack.crossover.auto_mismatches",
		Unit:   "points", Better: BetterLower, Value: float64(mismatches),
	})
	for _, w := range sortedKeys(b.BreakEvenRows) {
		recs = append(recs, Record{
			Source: "pack",
			Metric: fmt.Sprintf("pack.crossover.break_even_rows.%s", w),
			Unit:   "rows", Value: b.BreakEvenRows[w], // informational
		})
	}
	return recs, nil
}

// critpathBench mirrors cmd/pipedoctor's benchFile.
type critpathBench struct {
	Results []struct {
		Label      string  `json:"label"`
		WallUs     float64 `json:"wall_us"`
		Divergence float64 `json:"divergence"`
	} `json:"results"`
}

// ExtractCritpath flattens BENCH_critpath.json: the virtual wall clock of
// every analyzed configuration (lower-better) plus the model divergence
// as informational context.
func ExtractCritpath(data []byte) ([]Record, error) {
	var b critpathBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("store: parse critpath bench: %w", err)
	}
	var recs []Record
	for _, r := range b.Results {
		recs = append(recs,
			Record{
				Source: "critpath",
				Metric: fmt.Sprintf("critpath.%s.wall_us", r.Label),
				Unit:   "us", Better: BetterLower, Value: r.WallUs,
			},
			Record{
				Source: "critpath",
				Metric: fmt.Sprintf("critpath.%s.divergence_pct", r.Label),
				Unit:   "%", Value: 100 * r.Divergence, // informational
			})
	}
	return recs, nil
}

// loadBench mirrors load.Doc; kept structural so the store does not
// import the harness.
type loadBench struct {
	LoadSchema int `json:"load_schema"`
	Curves     []struct {
		Process string `json:"process"`
		Points  []struct {
			OfferedMBs float64 `json:"offered_mbs"`
			GoodputMBs float64 `json:"goodput_mbs"`
			P50Us      float64 `json:"p50_us"`
			P99Us      float64 `json:"p99_us"`
		} `json:"points"`
		KneeIndex      int     `json:"knee_index"`
		KneeOfferedMBs float64 `json:"knee_offered_mbs"`
		PeakGoodputMBs float64 `json:"peak_goodput_mbs"`
	} `json:"curves"`
}

// ExtractLoad flattens BENCH_load.json. Per arrival process, the knee
// offered load and peak goodput gate higher-better — a regression that
// saturates the pipeline earlier or caps it lower fails the trajectory
// gate. Per-point goodput gates higher-better too, and the p50/p99
// sojourn tails gate lower-better up to the knee; past it the open-loop
// backlog makes tails a property of the sweep's overload depth rather
// than the pipeline, so they ride along as informational.
func ExtractLoad(data []byte) ([]Record, error) {
	var b loadBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("store: parse load bench: %w", err)
	}
	if b.LoadSchema != 1 {
		return nil, fmt.Errorf("store: load bench schema %d unsupported", b.LoadSchema)
	}
	var recs []Record
	for _, c := range b.Curves {
		prefix := fmt.Sprintf("load.%s", c.Process)
		recs = append(recs,
			Record{
				Source: "load", Metric: prefix + ".knee_offered_mbs",
				Unit: "MB/s", Better: BetterHigher, Value: c.KneeOfferedMBs,
			},
			Record{
				Source: "load", Metric: prefix + ".peak_goodput_mbs",
				Unit: "MB/s", Better: BetterHigher, Value: c.PeakGoodputMBs,
			})
		for i, pt := range c.Points {
			tailBetter := BetterLower
			if c.KneeIndex < 0 || i > c.KneeIndex {
				tailBetter = "" // saturated point: tails informational
			}
			recs = append(recs,
				Record{
					Source: "load", Metric: fmt.Sprintf("%s.pt%d.goodput_mbs", prefix, i),
					Unit: "MB/s", Better: BetterHigher, Value: pt.GoodputMBs,
				},
				Record{
					Source: "load", Metric: fmt.Sprintf("%s.pt%d.offered_mbs", prefix, i),
					Unit: "MB/s", Value: pt.OfferedMBs, // informational: the stimulus
				},
				Record{
					Source: "load", Metric: fmt.Sprintf("%s.pt%d.p50_us", prefix, i),
					Unit: "us", Better: tailBetter, Value: pt.P50Us,
				},
				Record{
					Source: "load", Metric: fmt.Sprintf("%s.pt%d.p99_us", prefix, i),
					Unit: "us", Better: tailBetter, Value: pt.P99Us,
				})
		}
	}
	return recs, nil
}
