// Command pipedoctor is the critical-path and stall-attribution doctor
// for the five-stage pipeline: it runs (or ingests) a traced transfer,
// rebuilds the dependency DAG from the obs task stream, attributes every
// nanosecond of the transfer wall clock to stage work, resource queueing
// or protocol control, and checks the measurement against the paper's
// (n+2)*T(N/n) pipeline model — flagging divergence beyond 10% and
// recommending the tunable (BlockSize, Rails, PackMode) most likely to
// move the bottleneck.
//
// Modes:
//
//	pipedoctor                          one live 2-GPU transfer (like pipetrace)
//	pipedoctor -trace run.json          ingest a ChromeTracer JSON file
//	pipedoctor -matrix                  the repro matrix: sizes x rails x pack modes
//	pipedoctor -bench BENCH_critpath.json   machine-readable results
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/obs/store"
	"mv2sim/internal/osu"
	"mv2sim/internal/report"
)

// benchFile is the BENCH_critpath.json document: one record per analyzed
// configuration.
type benchFile struct {
	Results []critpath.BenchResult `json:"results"`
}

// mergeBench folds fresh results into an existing bench document: a
// fresh result replaces the same-label record in place (so a single
// -msg run refreshes its row of a -matrix file instead of erasing the
// rest), and genuinely new labels append at the end.
func mergeBench(existing, fresh []critpath.BenchResult) []critpath.BenchResult {
	out := append([]critpath.BenchResult(nil), existing...)
	index := make(map[string]int, len(out))
	for i, r := range out {
		index[r.Label] = i
	}
	for _, r := range fresh {
		if i, ok := index[r.Label]; ok {
			out[i] = r
			continue
		}
		index[r.Label] = len(out)
		out = append(out, r)
	}
	return out
}

func main() {
	msg := flag.Int("msg", 4<<20, "message size in bytes")
	pitch := flag.Int("pitch", 16, "byte pitch between 4-byte vector elements")
	rails := flag.Int("rails", mpi.DefaultRails, "HCA rails to stripe chunks across")
	packMode := flag.String("packmode", "auto", "pack/unpack engine: auto, memcpy2d, kernel or nic")
	traceIn := flag.String("trace", "", "ingest a ChromeTracer JSON file instead of running live")
	matrix := flag.Bool("matrix", false, "run the repro matrix (sizes x rails x pack modes)")
	benchOut := flag.String("bench", "", "merge machine-readable results into this JSON file")
	storePath := flag.String("store", "", "append extracted metrics to this perf store (JSON lines)")
	commit := flag.String("commit", "", "commit id to stamp on appended store records")
	showPath := flag.Bool("path", false, "print the critical-path step table")
	strict := flag.Bool("strict", false, "exit nonzero if the model check flags divergence")
	flag.Parse()

	var bench benchFile
	failed := false
	switch {
	case *traceIn != "":
		f, err := os.Open(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		col, err := critpath.Ingest(f)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		for i, a := range col.Analyze() {
			label := fmt.Sprintf("%s#%d_%s", *traceIn, i, report.ByteSize(a.Transfer.Send.Bytes))
			if !diagnose(label, a.Transfer.Send.Bytes, 0, "trace", a, nil, *showPath, *strict, &bench) {
				failed = true
			}
		}
	case *matrix:
		for _, m := range []int{64 << 10, 1 << 20, 4 << 20} {
			for _, r := range []int{1, 2} {
				for _, pm := range []string{"memcpy2d", "kernel", "auto", "nic"} {
					a, met, block := runOnce(m, *pitch, r, pm)
					label := fmt.Sprintf("msg%s_rails%d_%s", report.ByteSize(m), r, pm)
					if !diagnose(label, m, block, pm, a, met, *showPath, *strict, &bench) {
						failed = true
					}
				}
			}
		}
	default:
		a, met, block := runOnce(*msg, *pitch, *rails, *packMode)
		label := fmt.Sprintf("msg%s_rails%d_%s", report.ByteSize(*msg), *rails, *packMode)
		if !diagnose(label, *msg, block, *packMode, a, met, *showPath, *strict, &bench) {
			failed = true
		}
	}

	if *benchOut != "" {
		// Merge into an existing document rather than overwriting it, so a
		// single-configuration run refreshes only its own row of a
		// previously written -matrix file.
		merged := bench
		if prev, err := os.ReadFile(*benchOut); err == nil && len(bytes.TrimSpace(prev)) > 0 {
			var existing benchFile
			if err := json.Unmarshal(prev, &existing); err != nil {
				log.Fatalf("pipedoctor: existing %s is not a bench file: %v", *benchOut, err)
			}
			merged.Results = mergeBench(existing.Results, bench.Results)
		}
		data, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Machine-readable results: %s\n", *benchOut)
	}
	if *storePath != "" {
		data, err := json.Marshal(bench)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.AppendBench(os.Stdout, *storePath, *commit, data); err != nil {
			log.Fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runOnce runs one live pipetrace-style transfer with the collecting and
// metrics tracers attached; it returns the analysis, the stage latency
// metrics and the pipeline block size the cluster used.
func runOnce(msg, pitch, rails int, packMode string) (*critpath.Analysis, *obs.MetricsTracer, int) {
	mode, err := core.ParsePackMode(packMode)
	if err != nil {
		log.Fatal(err)
	}
	col := critpath.NewCollector()
	met := obs.NewMetricsTracer()
	cfg := cluster.Config{Rails: rails, Tracers: []obs.Tracer{col, met}}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = mode
	cl, err := osu.VectorTransfer(msg, pitch, cfg)
	if err != nil {
		log.Fatal(err)
	}
	as := col.Analyze()
	if len(as) != 1 {
		log.Fatalf("pipedoctor: expected 1 transfer, analyzed %d", len(as))
	}
	return as[0], met, cl.World.Config().BlockSize
}

// diagnose prints the full report for one analysis and appends its bench
// record. It returns false when a gate fails: the attribution does not
// sum exactly, the flag state is inconsistent with the divergence, or
// -strict is set and the model flags the configuration.
func diagnose(label string, msg, block int, packMode string, a *critpath.Analysis, met *obs.MetricsTracer, showPath, strict bool, bench *benchFile) bool {
	var extra fmt.Stringer
	if met != nil {
		extra = met.Table("Stage latency percentiles")
	}
	critpath.WriteReport(os.Stdout, label, a, extra)
	ok := true
	if !a.Exact() {
		fmt.Printf("FAIL: attribution sums to %.3f us, wall clock is %.3f us\n",
			a.Sum().Micros(), a.Wall().Micros())
		ok = false
	}
	if m, hasModel := a.Model(); hasModel {
		wantFlag := m.Divergence > critpath.DivergenceThreshold ||
			m.Divergence < -critpath.DivergenceThreshold
		if wantFlag != m.Flagged {
			fmt.Printf("FAIL: divergence %+.1f%% but flagged=%v\n", 100*m.Divergence, m.Flagged)
			ok = false
		}
		if strict && m.Flagged {
			fmt.Printf("FAIL (-strict): model divergence flagged, stall bucket %s\n", m.Responsible)
			ok = false
		}
	}
	if showPath {
		fmt.Println(a.PathTable("Critical path"))
	}
	bench.Results = append(bench.Results, critpath.Bench(label, msg, block, a.Rails, packMode, a))
	return ok
}
