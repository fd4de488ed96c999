// Command perfstore manages the append-only perf-regression store: a
// schema-versioned JSON-lines log with one record per benchmark metric
// per commit, the substrate for check.sh's trajectory gates and the
// dashboard's sparklines.
//
// Subcommands:
//
//	perfstore seed   -store S [-commit C] BENCH.json...   rebuild S from bench files
//	perfstore append -store S [-commit C] BENCH.json...   append bench files' metrics
//	perfstore gate   -store S [-tol 5] [-self]            gate the recorded trajectory
//	perfstore list   -store S                             one line per metric
//	perfstore show   -store S -metric M                   one metric's full series
//
// `gate` without -self reads candidate bench files from the remaining
// arguments and gates each extracted metric against the store's recorded
// best; with -self it gates each metric's latest record against the best
// of its predecessors — the mode check.sh uses, which fails exactly when
// a regression record has been appended to the committed trajectory.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mv2sim/internal/obs/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	storePath := fs.String("store", "perf/store.jsonl", "path of the JSON-lines store")
	commit := fs.String("commit", "", "commit id to stamp on seeded/appended records")
	tol := fs.Float64("tol", 5, "gate tolerance in percent")
	self := fs.Bool("self", false, "gate: check the stored trajectory's own tail")
	metric := fs.String("metric", "", "show: the metric key to print")
	if err := fs.Parse(os.Args[2:]); err != nil {
		log.Fatal(err)
	}

	st, err := store.Open(*storePath)
	if err != nil {
		log.Fatal(err)
	}

	switch cmd {
	case "seed":
		recs := loadBench(fs.Args(), *commit)
		if err := st.Seed(recs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("perfstore: seeded %d record(s) into %s\n", len(recs), *storePath)
	case "append":
		if len(fs.Args()) == 0 {
			log.Fatal("perfstore: at least one BENCH_*.json argument is required")
		}
		for _, p := range fs.Args() {
			data, err := os.ReadFile(p)
			if err != nil {
				log.Fatal(err)
			}
			if err := store.AppendBench(os.Stdout, *storePath, *commit, data); err != nil {
				log.Fatalf("perfstore: %s: %v", p, err)
			}
		}
	case "gate":
		var results []store.GateResult
		if *self {
			results = st.GateTail(*tol)
		} else {
			for _, r := range loadBench(fs.Args(), *commit) {
				results = append(results, st.Gate(r.Metric, r.Value, *tol))
			}
		}
		failed := false
		for _, g := range results {
			status := "ok"
			if !g.OK {
				status, failed = "FAIL", true
			}
			fmt.Printf("%-4s %-55s %s\n", status, g.Metric, g.Reason)
		}
		if failed {
			fmt.Printf("perfstore: trajectory gate FAILED (tolerance %.1f%%)\n", *tol)
			os.Exit(1)
		}
		fmt.Printf("perfstore: %d metric(s) within %.1f%% of trajectory best\n", len(results), *tol)
	case "list":
		for _, m := range st.Metrics() {
			latest, _ := st.Latest(m)
			best, _ := st.Best(m)
			fmt.Printf("%-55s n=%-3d latest=%-12g best=%-12g %s\n",
				m, len(st.Trajectory(m)), latest.Value, best.Value, direction(latest.Better))
		}
	case "show":
		if *metric == "" {
			log.Fatal("perfstore show: -metric is required")
		}
		recs := st.Trajectory(*metric)
		if len(recs) == 0 {
			log.Fatalf("perfstore show: no records for %q", *metric)
		}
		for _, r := range recs {
			fmt.Printf("seq=%-4d commit=%-12s value=%g %s\n", r.Seq, orDash(r.Commit), r.Value, r.Unit)
		}
	default:
		usage()
	}
}

// loadBench extracts store records from each BENCH_*.json file given.
func loadBench(paths []string, commit string) []store.Record {
	if len(paths) == 0 {
		log.Fatal("perfstore: at least one BENCH_*.json argument is required")
	}
	var recs []store.Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			log.Fatal(err)
		}
		source, rs, err := store.Extract(data)
		if err != nil {
			log.Fatalf("perfstore: %s: %v", p, err)
		}
		for i := range rs {
			rs[i].Commit = commit
		}
		fmt.Printf("perfstore: %s: %d metric(s) from %s format\n", p, len(rs), source)
		recs = append(recs, rs...)
	}
	return recs
}

func direction(better string) string {
	switch better {
	case store.BetterLower:
		return "lower-is-better"
	case store.BetterHigher:
		return "higher-is-better"
	}
	return "informational"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: perfstore {seed|append|gate|list|show} [flags] [BENCH.json...]\n")
	os.Exit(2)
}
