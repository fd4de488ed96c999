// Command packbench regenerates Figure 2 of the paper: the latency of the
// three non-contiguous pack schemes (D2H nc2nc, D2H nc2c, D2D2H nc2c2c)
// for vector data of 4-byte elements, on the simulated Tesla-C2050-class
// device.
//
// Usage:
//
//	packbench            # both panels (small + large)
//	packbench -small     # Figure 2(a): 16 B – 4 KB
//	packbench -large     # Figure 2(b): 4 KB – 4 MB
//	packbench -csv       # CSV instead of aligned tables
//
// Beyond Figure 2, -crossover sweeps the three-way pack-engine crossover
// (memcpy2D vs kernel vs NIC SGE gather) over a rows × rowBytes grid (the
// experimental basis of the transport's PackModeAuto heuristic) and
// -bench writes it as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"mv2sim/internal/gpu"
	"mv2sim/internal/ib"
	"mv2sim/internal/obs/store"
	"mv2sim/internal/osu"
	"mv2sim/internal/report"
)

func main() {
	small := flag.Bool("small", false, "only the small-message panel (Figure 2a)")
	large := flag.Bool("large", false, "only the large-message panel (Figure 2b)")
	iters := flag.Int("iters", 5, "timing iterations per point (median reported)")
	pitch := flag.Int("pitch", 64, "byte pitch between vector elements")
	csv := flag.Bool("csv", false, "emit CSV")
	widths := flag.Bool("widths", false, "also sweep element width at 256 KB (beyond the paper's fixed 4 B)")
	crossover := flag.Bool("crossover", false, "run the kernel-vs-memcpy2D pack crossover sweep instead of Figure 2")
	benchOut := flag.String("bench", "", "with -crossover: write the sweep as JSON (BENCH_pack.json)")
	storePath := flag.String("store", "", "append extracted crossover metrics to this perf store (JSON lines)")
	commit := flag.String("commit", "", "commit id to stamp on appended store records")
	flag.Parse()

	if *crossover {
		doc := runCrossover(*benchOut)
		if *storePath != "" && doc != nil {
			if err := store.AppendBench(os.Stdout, *storePath, *commit, doc); err != nil {
				log.Fatalf("packbench: %s: %v", *benchOut, err)
			}
		}
		return
	}

	cfg := osu.PackConfig{Iters: *iters, PitchBytes: *pitch}
	smallSizes := []int{16, 64, 256, 1 << 10, 4 << 10}
	largeSizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

	show := func(fig *report.Figure) {
		if *csv {
			t := report.NewTable("", append([]string{"size"}, seriesNames(fig)...)...)
			for i, size := range fig.Series[0].Sizes {
				row := []string{fmt.Sprint(size)}
				for _, s := range fig.Series {
					row = append(row, fmt.Sprintf("%.3f", s.Values[i].Micros()))
				}
				t.Add(row...)
			}
			fmt.Print(t.CSV())
			return
		}
		fmt.Println(fig.String())
	}

	if !*large || *small {
		show(must(osu.RunFigure2("Figure 2(a): non-contiguous pack latency, small messages (us)", smallSizes, cfg)))
	}
	if !*small || *large {
		show(must(osu.RunFigure2("Figure 2(b): non-contiguous pack latency, large messages (us)", largeSizes, cfg)))
	}
	if *widths {
		fmt.Println(must(osu.WidthSweep(256<<10, []int{4, 16, 64, 256, 1024}, cfg)))
	}
}

// runCrossover measures the pack-engine crossover grid, prints it, and
// optionally writes it as the BENCH_pack.json artifact CI gates and
// uploads; it returns the document written, or nil.
func runCrossover(out string) []byte {
	rowsList := []int{16, 64, 128, 256, 1024, 4096, 16384}
	rowBytesList := []int{4, 16, 64, 256, 1024, 4096}
	res := must(osu.PackCrossover(rowsList, rowBytesList, 4, gpu.CostModel{}, ib.Model{}))
	fmt.Println(res.Table())
	be := res.BreakEvenRows[4]
	fmt.Printf("Break-even at 4-byte rows: kernel wins from %d rows up.\n", be)
	nicWins := 0
	for _, pt := range res.Grid {
		if pt.Best == "nic" {
			nicWins++
		}
	}
	fmt.Printf("NIC gather wins %d of %d grid points (few coarse rows per chunk).\n", nicWins, len(res.Grid))
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Crossover sweep written to %s (%d points).\n", out, len(res.Grid))
		return data
	}
	return nil
}

// must exits nonzero on any benchmark failure, including the device-leak
// gates inside the osu package.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func seriesNames(fig *report.Figure) []string {
	var out []string
	for _, s := range fig.Series {
		out = append(out, s.Name)
	}
	return out
}
