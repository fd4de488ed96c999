// Command dashboard serves the live pipeline dashboard: an HTTP view of
// one traced transfer (resource utilization, per-stage latency
// percentiles, critical-path stall attribution, the Chrome trace) plus
// the append-only perf store's metric trajectories.
//
// Modes:
//
//	dashboard                             run one live 2-GPU transfer, serve it
//	dashboard -trace run.json             serve an existing ChromeTracer JSON file
//	dashboard -store perf/store.jsonl     also serve the recorded perf trajectories
//	dashboard -load BENCH_load.json       also serve the load–latency sweep
//	dashboard -snapshot DIR               write every JSON endpoint to DIR and exit
//	                                      (the network-free mode check.sh diffs)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/load"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/obs/dash"
	"mv2sim/internal/obs/store"
	"mv2sim/internal/osu"
	"mv2sim/internal/report"
)

func main() {
	addr := flag.String("addr", "localhost:8077", "HTTP listen address")
	traceIn := flag.String("trace", "", "serve a ChromeTracer JSON file instead of running live")
	storePath := flag.String("store", "", "append-only perf store to serve trajectories from")
	loadPath := flag.String("load", "", "BENCH_load.json sweep to serve at /api/load")
	snapshot := flag.String("snapshot", "", "write every JSON endpoint into this directory and exit")
	msg := flag.Int("msg", 4<<20, "live mode: message size in bytes")
	pitch := flag.Int("pitch", 16, "live mode: byte pitch between 4-byte vector elements")
	rails := flag.Int("rails", mpi.DefaultRails, "live mode: HCA rails to stripe chunks across")
	packMode := flag.String("packmode", "auto", "live mode: pack/unpack engine: auto, memcpy2d, kernel or nic")
	flag.Parse()

	var (
		b     dash.Bundle
		trace []byte
		label string
	)
	if *traceIn != "" {
		data, err := os.ReadFile(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		col, err := critpath.Ingest(bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		b, trace, label = dash.Replay(col), data, *traceIn
	} else {
		b, trace = runLive(*msg, *pitch, *rails, *packMode)
		label = fmt.Sprintf("live_msg%s_rails%d_%s", report.ByteSize(*msg), *rails, *packMode)
	}

	var st *store.Store
	if *storePath != "" {
		var err error
		if st, err = store.Open(*storePath); err != nil {
			log.Fatal(err)
		}
	}

	srv := dash.New(label, b, trace, st)
	if *loadPath != "" {
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		var doc load.Doc
		if err := json.Unmarshal(data, &doc); err != nil {
			log.Fatalf("dashboard: %s: %v", *loadPath, err)
		}
		if doc.Schema != load.LoadSchema {
			log.Fatalf("dashboard: %s: load_schema %d, want %d", *loadPath, doc.Schema, load.LoadSchema)
		}
		srv.SetLoad(&doc)
	}
	if *snapshot != "" {
		if err := srv.Snapshot(*snapshot); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dashboard: wrote endpoint snapshots to %s\n", *snapshot)
		return
	}
	fmt.Printf("dashboard: serving %s on http://%s\n", label, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}

// runLive runs one pipetrace-style 2-GPU transfer with the dashboard
// bundle and a Chrome tracer attached.
func runLive(msg, pitch, rails int, packMode string) (dash.Bundle, []byte) {
	mode, err := core.ParsePackMode(packMode)
	if err != nil {
		log.Fatal(err)
	}
	b := dash.NewBundle()
	chrome := obs.NewChromeTracer()
	cfg := cluster.Config{Rails: rails, Tracers: append(b.Tracers(), chrome)}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = mode
	if _, err := osu.VectorTransfer(msg, pitch, cfg); err != nil {
		log.Fatal(err)
	}
	return b, []byte(chrome.JSON())
}
