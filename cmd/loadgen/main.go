// Command loadgen sweeps offered load through the open-loop harness and
// reports the load–latency curve per arrival process: sojourn-time tail
// percentiles (p50/p95/p99/p99.9), goodput, and the detected saturation
// knee. -bench writes the sweep as BENCH_load.json; -store appends the
// extracted metrics (knee, peak goodput, per-point tails) to the perf
// store so check.sh gates regressions in saturation behaviour.
//
// Usage:
//
//	loadgen                              # default sweep, all 3 processes
//	loadgen -process poisson             # one process
//	loadgen -offered 500,1000,2000       # explicit aggregate MB/s levels
//	loadgen -bench BENCH_load.json -store perf/store.jsonl -commit $SHA
//
// The defaults are the committed-baseline configuration: identical seeds
// produce byte-identical BENCH_load.json.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"mv2sim/internal/core"
	"mv2sim/internal/load"
	"mv2sim/internal/obs/store"
	"mv2sim/internal/report"
	"mv2sim/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 1, "arrival-schedule seed")
	pairs := flag.Int("pairs", 4, "disjoint sender->receiver rank pairs")
	horizonMs := flag.Float64("horizon", 2.0, "arrival window in virtual milliseconds")
	offered := flag.String("offered", "2000,4000,8000,12000,16000,24000",
		"comma-separated aggregate offered-load levels (MB/s), ascending")
	process := flag.String("process", "all", "arrival process: poisson, deterministic, bursty or all")
	rails := flag.Int("rails", 0, "HCA rails per node (default 1)")
	packmode := flag.String("packmode", "auto", "pack engine: auto, memcpy2d, kernel or nic")
	maxPosted := flag.Int("maxposted", 0, "receiver posting window (default 32)")
	vbufs := flag.Int("vbufs", 0, "vbufs per pool per node (default 64)")
	benchOut := flag.String("bench", "", "write the sweep as JSON (BENCH_load.json)")
	storePath := flag.String("store", "", "append extracted load metrics to this perf store (JSON lines)")
	commit := flag.String("commit", "", "commit id to stamp on appended store records")
	flag.Parse()

	pm, err := core.ParsePackMode(*packmode)
	if err != nil {
		log.Fatal(err)
	}
	levels, err := parseLevels(*offered)
	if err != nil {
		log.Fatal(err)
	}
	procs := load.Processes
	if *process != "all" {
		p, err := load.ParseProcess(*process)
		if err != nil {
			log.Fatal(err)
		}
		procs = []load.Process{p}
	}

	doc := load.Doc{
		Schema:    load.LoadSchema,
		Seed:      *seed,
		Pairs:     *pairs,
		Rails:     railsLabel(*rails),
		PackMode:  pm.String(),
		HorizonMs: *horizonMs,
	}
	for _, proc := range procs {
		points := make([]load.Result, 0, len(levels))
		for _, mbs := range levels {
			res, err := load.Run(load.Config{
				Seed:       *seed,
				Process:    proc,
				Pairs:      *pairs,
				OfferedMBs: mbs,
				Horizon:    sim.Time(*horizonMs * float64(sim.Millisecond)),
				MaxPosted:  *maxPosted,
				Rails:      *rails,
				PackMode:   pm,
				VbufCount:  *vbufs,
			})
			if err != nil {
				log.Fatal(err)
			}
			points = append(points, res)
		}
		curve := load.NewCurve(proc, points)
		doc.Curves = append(doc.Curves, curve)
		fmt.Println(curveTable(curve))
		if curve.KneeIndex >= 0 {
			fmt.Printf("Saturation knee (%s): %.0f MB/s offered, peak goodput %.0f MB/s.\n\n",
				proc, curve.KneeOfferedMBs, curve.PeakGoodputMBs)
		} else {
			fmt.Printf("No knee (%s): every level saturated; peak goodput %.0f MB/s.\n\n",
				proc, curve.PeakGoodputMBs)
		}
	}

	if *benchOut != "" {
		data, err := doc.Marshal()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Load sweep written to %s (%d curves x %d points).\n", *benchOut, len(doc.Curves), len(levels))
		if *storePath != "" {
			if err := store.AppendBench(os.Stdout, *storePath, *commit, data); err != nil {
				log.Fatalf("loadgen: %s: %v", *benchOut, err)
			}
		}
	}
}

// curveTable renders one process's sweep.
func curveTable(c load.Curve) string {
	t := report.NewTable(
		fmt.Sprintf("Open-loop load sweep, %s arrivals", c.Process),
		"offered (MB/s)", "goodput (MB/s)", "transfers",
		"p50 (us)", "p95 (us)", "p99 (us)", "p99.9 (us)", "max (us)",
		"makespan (ms)", "vbuf waits")
	for _, p := range c.Points {
		t.Add(
			fmt.Sprintf("%.0f", p.OfferedMBs),
			fmt.Sprintf("%.0f", p.GoodputMBs),
			fmt.Sprintf("%d", p.Transfers),
			fmt.Sprintf("%.1f", p.P50Us),
			fmt.Sprintf("%.1f", p.P95Us),
			fmt.Sprintf("%.1f", p.P99Us),
			fmt.Sprintf("%.1f", p.P999Us),
			fmt.Sprintf("%.1f", p.MaxUs),
			fmt.Sprintf("%.3f", p.MakespanMs),
			fmt.Sprintf("%d", p.VbufWaits))
	}
	return t.String()
}

func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("loadgen: bad offered level %q", f)
		}
		if len(out) > 0 && v <= out[len(out)-1] {
			return nil, fmt.Errorf("loadgen: offered levels must ascend, got %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func railsLabel(r int) int {
	if r == 0 {
		return 1
	}
	return r
}
