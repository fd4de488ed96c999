// Command stencil2d regenerates the paper's application evaluation:
// Tables II and III (median Stencil2D iteration times for both variants
// on the four process grids) and Figure 6 (the dimension-wise
// communication breakdown of Stencil2D-Def).
//
// The default geometry is the paper's divided by -scale in each dimension,
// with the kernel cost scaled to preserve the communication/compute ratio
// (see DESIGN.md). -scale 1 runs the exact 64Kx1K / 1Kx64K / 8Kx8K
// per-process matrices; expect several minutes and ~10 GB of memory.
//
// Usage:
//
//	stencil2d                 # Table II (f32) at scale 16
//	stencil2d -prec f64       # Table III
//	stencil2d -both           # Tables II and III
//	stencil2d -breakdown      # Figure 6
//	stencil2d -scale 1        # full paper geometry
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/report"
	"mv2sim/internal/shoc"
)

func main() {
	prec := flag.String("prec", "f32", "precision: f32 or f64")
	both := flag.Bool("both", false, "run both precisions (Tables II and III)")
	scale := flag.Int("scale", 16, "divide each matrix dimension by this (1 = paper scale)")
	iters := flag.Int("iters", 3, "timed iterations (median reported)")
	breakdown := flag.Bool("breakdown", false, "run the Figure 6 communication breakdown instead")
	traceOut := flag.String("trace", "", "run one traced NC iteration on the 2x4 grid and write Chrome trace JSON")
	doctor := flag.Bool("doctor", false, "run one NC iteration on the 2x4 grid with the critical-path doctor attached and print the stall report for the slowest halo transfer")
	flag.Parse()

	if *doctor {
		col := critpath.NewCollector()
		g := shoc.PaperGrids(*scale)[2] // 2x4
		p := shoc.ScaledParams(g, shoc.F32, shoc.NC, *scale, 1)
		p.Cluster.Tracers = []obs.Tracer{col}
		if _, err := shoc.Run(p); err != nil {
			log.Fatal(err)
		}
		analyses := col.Analyze()
		// Prefer the slowest chunked (rendezvous-pipelined) transfer so the
		// model check applies; at small -scale every halo fits the eager
		// path and the slowest overall is shown instead.
		var worst *critpath.Analysis
		for _, a := range analyses {
			switch {
			case worst == nil:
				worst = a
			case (a.Chunks > 0) != (worst.Chunks > 0):
				if a.Chunks > 0 {
					worst = a
				}
			case a.Wall() > worst.Wall():
				worst = a
			}
		}
		if worst == nil {
			log.Fatal("stencil2d: no transfers analyzed")
		}
		fmt.Printf("Analyzed %d halo transfers of one Stencil2D-NC iteration (2x4 grid); slowest shown.\n\n", len(analyses))
		critpath.WriteReport(os.Stdout, fmt.Sprintf("stencil2d_2x4_%s", report.ByteSize(worst.Transfer.Send.Bytes)), worst, nil)
		return
	}

	if *traceOut != "" {
		chrome := obs.NewChromeTracer()
		g := shoc.PaperGrids(*scale)[2] // 2x4
		p := shoc.ScaledParams(g, shoc.F32, shoc.NC, *scale, 1)
		p.Cluster.Tracers = []obs.Tracer{chrome}
		if _, err := shoc.Run(p); err != nil {
			log.Fatal(err)
		}
		if err := chrome.WriteFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Chrome trace of one Stencil2D-NC iteration (2x4 grid): %s (%d events)\n", *traceOut, chrome.Events())
		return
	}

	if *breakdown {
		bd, err := shoc.RunBreakdown(*scale, *iters)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(shoc.BreakdownTable(bd))
		return
	}

	precs := map[string]shoc.Precision{"f32": shoc.F32, "f64": shoc.F64}
	run := func(p shoc.Precision) {
		t, err := shoc.RunTable(p, *scale, *iters)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t)
	}
	if *both {
		run(shoc.F32)
		run(shoc.F64)
		return
	}
	p, ok := precs[*prec]
	if !ok {
		log.Fatalf("unknown precision %q (want f32 or f64)", *prec)
	}
	run(p)
}
