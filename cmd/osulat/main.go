// Command osulat regenerates Figure 5 of the paper: GPU-to-GPU vector
// latency for the three application designs of Figure 4 — blocking
// Cpy2D+Send, the hand-written Cpy2DAsync+CpyAsync+Isend pipeline, and the
// transparent MV2-GPU-NC library path — on a 1x2 process grid with 4-byte
// vector elements.
//
// Usage:
//
//	osulat           # both panels
//	osulat -small    # Figure 5(a): 16 B – 4 KB
//	osulat -large    # Figure 5(b): 4 KB – 4 MB
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mv2sim/internal/core"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/osu"
	"mv2sim/internal/report"
	"mv2sim/internal/sim"
)

func main() {
	small := flag.Bool("small", false, "only the small-message panel (Figure 5a)")
	large := flag.Bool("large", false, "only the large-message panel (Figure 5b)")
	iters := flag.Int("iters", 3, "iterations per point (median reported)")
	pitch := flag.Int("pitch", 64, "byte pitch between vector elements")
	traceOut := flag.String("trace", "", "also run one traced 4 MB MV2-GPU-NC transfer and write Chrome trace JSON")
	doctor := flag.Bool("doctor", false, "also run one 4 MB MV2-GPU-NC transfer with the critical-path doctor attached and print the stall report")
	packMode := flag.String("packmode", "auto", "MV2-GPU-NC pack/unpack engine: auto, memcpy2d, kernel or nic")
	flag.Parse()

	mode, err := core.ParsePackMode(*packMode)
	if err != nil {
		log.Fatal(err)
	}
	cfg := osu.VectorConfig{Iters: *iters, PitchBytes: *pitch}
	cfg.Cluster.Core.PackMode = mode
	cfg.Cluster.Core.UnpackMode = mode
	smallSizes := []int{16, 64, 256, 1 << 10, 4 << 10}
	largeSizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

	if !*large || *small {
		fig, err := osu.RunFigure5("Figure 5(a): vector communication latency, small messages (us)", smallSizes, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fig)
	}
	if !*small || *large {
		fig, err := osu.RunFigure5("Figure 5(b): vector communication latency, large messages (us)", largeSizes, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fig)
		// The paper's headline: improvement of MV2-GPU-NC over Cpy2D+Send
		// at 4 MB (paper: 88%).
		var blocking, nc sim.Time
		for _, s := range fig.Series {
			last := s.Values[len(s.Values)-1]
			switch s.Name {
			case osu.DesignCpy2DSend.String():
				blocking = last
			case osu.DesignMV2GPUNC.String():
				nc = last
			}
		}
		fmt.Printf("MV2-GPU-NC improvement over Cpy2D+Send at 4 MB: %s (paper: 88%%)\n\n",
			report.Improvement(blocking, nc))
	}

	if *traceOut != "" {
		chrome := obs.NewChromeTracer()
		tcfg := cfg
		tcfg.Iters = 1
		tcfg.Cluster.Tracers = []obs.Tracer{chrome}
		if _, err := osu.VectorLatency(osu.DesignMV2GPUNC, 4<<20, tcfg); err != nil {
			log.Fatal(err)
		}
		if err := chrome.WriteFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Chrome trace of one 4 MB MV2-GPU-NC transfer: %s (%d events)\n", *traceOut, chrome.Events())
	}

	if *doctor {
		col := critpath.NewCollector()
		met := obs.NewMetricsTracer()
		dcfg := cfg
		dcfg.Iters = 1
		dcfg.Cluster.Tracers = []obs.Tracer{col, met}
		if _, err := osu.VectorLatency(osu.DesignMV2GPUNC, 4<<20, dcfg); err != nil {
			log.Fatal(err)
		}
		// The barrier before the timed exchange shows up as small eager
		// transfers; the 4 MB rendezvous transfer is the one to diagnose.
		for _, a := range col.Analyze() {
			if a.Transfer.Send.Bytes != 4<<20 {
				continue
			}
			critpath.WriteReport(os.Stdout, fmt.Sprintf("osulat_4M_%s", *packMode), a,
				met.Table("Stage latency percentiles"))
		}
	}
}
