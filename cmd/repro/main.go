// Command repro runs every experiment in the paper's evaluation section
// and prints the full paper-vs-measured report: Figures 2, 5 and 6,
// Tables I, II and III, and the section IV-B block-size sweep. Its output
// is the basis of EXPERIMENTS.md.
//
// The stencil tables run at reduced geometry by default (-scale); pass
// -scale 1 for the exact paper matrices (minutes of wall time, ~10 GB).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/halo3d"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/obs/store"
	"mv2sim/internal/osu"
	"mv2sim/internal/report"
	"mv2sim/internal/shoc"
	"mv2sim/internal/sim"
	"mv2sim/internal/transpose"
)

// benchResults is the machine-readable summary written as BENCH_repro.json:
// the Figure 5(b) latency curves, the Table II/III stencil medians, the
// per-resource utilization of the five-stage pipeline at 4 MB, and the
// pipeline doctor's stall attribution of the same point, the 1 MB host
// round trip under each rendezvous protocol (the RGET row) and the
// multi-rail bandwidth of a wire-bound wide-row vector.
type benchResults struct {
	Scale              int                           `json:"scale"`
	Iters              int                           `json:"iters"`
	Figure5bLatencyUs  map[string]map[string]float64 `json:"figure5b_latency_us"`
	Stencil2DMedianSec map[string][]shoc.TableRow    `json:"stencil2d_median_sec"`
	PipelineResources  []resourceUtil                `json:"pipeline_utilization_4mb"`
	Pipedoctor4MB      critpath.BenchResult          `json:"pipedoctor_4mb"`
	RndvPutHost1MBUs   float64                       `json:"rndv_put_host_1mb_us"`
	RndvGetHost1MBUs   float64                       `json:"rndv_get_host_1mb_us"`
	RailsBandwidthMBs  map[string]float64            `json:"rails_bandwidth_mbs"`
}

// resourceUtil is one row of the pipeline utilization table. Rail lanes of
// a striped resource are aggregated into one row (Rails > 1).
type resourceUtil struct {
	Resource    string  `json:"resource"`
	Rails       int     `json:"rails"`
	BusyUs      float64 `json:"busy_us"`
	Utilization float64 `json:"utilization"`
}

func main() {
	scale := flag.Int("scale", 16, "stencil geometry divisor (1 = paper scale)")
	iters := flag.Int("iters", 3, "iterations per measurement")
	benchOut := flag.String("bench", "BENCH_repro.json", "machine-readable results file ('' to skip)")
	storePath := flag.String("store", "", "append extracted bench metrics to this perf store (JSON lines)")
	commit := flag.String("commit", "", "commit id to stamp on appended store records")
	flag.Parse()
	bench := benchResults{
		Scale:              *scale,
		Iters:              *iters,
		Figure5bLatencyUs:  map[string]map[string]float64{},
		Stencil2DMedianSec: map[string][]shoc.TableRow{},
	}

	start := time.Now()
	banner := func(s string) { fmt.Printf("\n================ %s ================\n\n", s) }

	banner("Figure 2: non-contiguous pack schemes")
	pcfg := osu.PackConfig{Iters: *iters}
	fmt.Println(must(osu.RunFigure2("Figure 2(a): small messages (us)",
		[]int{16, 64, 256, 1 << 10, 4 << 10}, pcfg)))
	fmt.Println(must(osu.RunFigure2("Figure 2(b): large messages (us)",
		[]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}, pcfg)))
	fmt.Println("Paper anchors: at 4 KB nc2nc=200us, nc2c=281us, nc2c2c=35us; at 4 MB nc2c2c = 4.8% of nc2nc.")

	banner("Figure 5: vector communication latency")
	vcfg := osu.VectorConfig{Iters: *iters}
	fmt.Println(must(osu.RunFigure5("Figure 5(a): small messages (us)",
		[]int{16, 64, 256, 1 << 10, 4 << 10}, vcfg)))
	fig5b := must(osu.RunFigure5("Figure 5(b): large messages (us)",
		[]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}, vcfg))
	fmt.Println(fig5b)
	fmt.Println("Paper: MV2-GPU-NC up to 88% latency improvement over Cpy2D+Send at 4 MB;")
	fmt.Println("       MV2-GPU-NC and the manual pipeline perform similarly.")
	for _, s := range fig5b.Series {
		pts := map[string]float64{}
		for i, size := range s.Sizes {
			pts[fmt.Sprintf("%d", size)] = s.Values[i].Micros()
		}
		bench.Figure5bLatencyUs[s.Name] = pts
	}

	banner("Section IV-B: pipeline block-size sweep")
	fmt.Println(must(osu.BlockSizeSweep(4<<20,
		[]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}, vcfg)))
	fmt.Println("Paper: 64 KB optimal.")

	banner("Table I: code complexity")
	fmt.Println(shoc.ComplexityTable())
	fmt.Println("Paper: Def 4/4/2 MPI + 4/4 CUDA calls, 245 LoC; NC same MPI, 0 CUDA, 158 LoC (-36%).")

	banner("Tables II & III: Stencil2D")
	for _, prec := range []shoc.Precision{shoc.F32, shoc.F64} {
		rows, err := shoc.RunTableRows(prec, *scale, *iters)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(shoc.TableFromRows(prec, *scale, rows))
		name := "f32"
		if prec == shoc.F64 {
			name = "f64"
		}
		bench.Stencil2DMedianSec[name] = rows
	}
	fmt.Println("Paper improvements: f32 42/19/27/22% and f64 39/22/26/21% on 1x8/8x1/2x4/4x2.")

	banner("Figure 6: Stencil2D-Def communication breakdown")
	bd, err := shoc.RunBreakdown(*scale, *iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(shoc.BreakdownTable(bd))
	fmt.Println("Paper: non-contiguous east/west CUDA staging dominates all MPI components.")

	banner("Figure 3: pipeline stage trace (1 MB vector)")
	fmt.Println(pipelineTrace())

	banner("Pipeline resource utilization (4 MB vector, Figure 5(b) largest point, rails=2)")
	util, stats, _, _ := pipelineRun(2)
	t := report.NewTable("Per-resource busy time over the transfer window",
		"resource", "rails", "busy (us)", "utilization")
	for _, u := range util {
		t.Add(u.Resource, fmt.Sprintf("%d", u.Rails),
			fmt.Sprintf("%.1f", u.BusyUs), fmt.Sprintf("%.0f%%", 100*u.Utilization))
	}
	fmt.Println(t)
	fmt.Println(stats.ResourceTable("Per-resource task stats (rail lanes aggregated, then split)"))
	fmt.Println("The DMA engines and HCA all stay busy concurrently: the paper's overlap argument, quantified.")
	bench.PipelineResources = util

	banner("Pipeline doctor: stall attribution and (n+2)*T(N/n) model (4 MB point)")
	_, _, doc, block := pipelineRun(mpi.DefaultRails)
	label := fmt.Sprintf("figure5b_4M_rails%d_auto", mpi.DefaultRails)
	critpath.WriteReport(os.Stdout, label, doc, nil)
	if !doc.Exact() {
		log.Fatalf("repro: doctor attribution sums to %v, wall is %v", doc.Sum(), doc.Wall())
	}
	bench.Pipedoctor4MB = critpath.Bench(label, 4<<20, block, doc.Rails, "auto", doc)

	banner("Extensions beyond the paper's figures")
	fmt.Println("Library-level pack-location ablation (1 MB vector, pitch 16):")
	offload := must(osu.VectorLatency(osu.DesignMV2GPUNC, 1<<20, osu.VectorConfig{Iters: 1, PitchBytes: 16}))
	stagedCfg := osu.VectorConfig{Iters: 1, PitchBytes: 16}
	stagedCfg.Cluster.Core.HostStagedPack = true
	staged := must(osu.VectorLatency(osu.DesignMV2GPUNC, 1<<20, stagedCfg))
	fmt.Printf("  GPU-offloaded pack: %10.1f us\n  host-staged pack:   %10.1f us  (%0.fx slower)\n\n",
		offload.Micros(), staged.Micros(), float64(staged)/float64(offload))

	fmt.Println(must(osu.RunBandwidthTable([]int{64 << 10, 1 << 20, 4 << 20}, 16, osu.VectorConfig{})))

	// Wide rows (8 KB of every 16 KB) leave the wire the bound, so rails
	// add bandwidth until a non-wire stage takes over.
	bench.RailsBandwidthMBs = map[string]float64{}
	fmt.Print("Multi-rail bandwidth (1 MB vector of 8 KB rows, window 4):")
	for _, rails := range []int{1, 2, 4} {
		cfg := osu.VectorConfig{ElemBytes: 8 << 10, PitchBytes: 16 << 10}
		cfg.Cluster.Rails = rails
		bw := must(osu.Bandwidth(1<<20, 4, cfg))
		bench.RailsBandwidthMBs[fmt.Sprintf("rails%d", rails)] = bw
		fmt.Printf("  rails=%d %.1f MB/s", rails, bw)
	}
	fmt.Print("\n\n")

	one := must(osu.MultiPairLatency(256<<10, 1, osu.VectorConfig{}))
	four := must(osu.MultiPairLatency(256<<10, 4, osu.VectorConfig{}))
	fmt.Printf("Disjoint-pair fabric scaling (256 KB vector): 1 pair %.1f us, 4 pairs %.1f us\n\n",
		one.Micros(), four.Micros())

	h3, err := halo3d.Run(halo3d.Params{PZ: 2, PY: 2, PX: 2, NZ: 64, NY: 64, NX: 64, Iters: *iters})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("halo3d (2x2x2 ranks, 64^3 cells, subarray datatypes): median iteration %.1f us\n",
		h3.MedianIter.Micros())

	tr, err := transpose.Run(transpose.Params{Ranks: 8, N: 1024, Validate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed transpose (1024^2 f32, 8 GPUs, datatype-only reshaping): %.1f us, validated=%v\n\n",
		tr.Elapsed.Micros(), tr.Validated)

	put := hostRoundTrip(mpi.RendezvousPut)
	get := hostRoundTrip(mpi.RendezvousGet)
	bench.RndvPutHost1MBUs, bench.RndvGetHost1MBUs = put.Micros(), get.Micros()
	fmt.Printf("rendezvous protocols, 1 MB contiguous host transfer: put %.1f us, get %.1f us (%s better)\n\n",
		put.Micros(), get.Micros(), report.Improvement(put, get))

	banner("Sensitivity: conclusions under calibration error")
	fmt.Println(must(osu.SensitivityTable([]float64{0.25, 1, 4}, 1<<20)))

	if *benchOut != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nMachine-readable results: %s\n", *benchOut)
		appendStore(*storePath, *commit, data)
	}

	fmt.Printf("\nTotal wall time: %s (virtual cluster: 8 nodes, C2050-class GPUs, QDR IB)\n",
		time.Since(start).Round(time.Millisecond))
}

// appendStore extracts the metrics of the bench document and appends
// them to the perf store; a no-op without -store.
func appendStore(storePath, commit string, benchDoc []byte) {
	if storePath == "" {
		return
	}
	st, err := store.Open(storePath)
	if err != nil {
		log.Fatal(err)
	}
	source, recs, err := store.Extract(benchDoc)
	if err != nil {
		log.Fatal(err)
	}
	for i := range recs {
		recs[i].Commit = commit
	}
	if err := st.Append(recs...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Perf store: appended %d %s metric(s) to %s\n", len(recs), source, storePath)
}

// pipelineRun runs one traced 4 MB MV2-GPU-NC vector transfer at the
// given rail count with the busy-time, per-resource stats and
// critical-path tracers attached. It reports how busy each pipeline
// resource was between the first and last traced activity — both GPUs'
// copy and compute engines (the pack/unpack stages land on either,
// depending on PackMode) and both ends of the wire — with rail lanes of
// a striped resource aggregated into one row, plus the stats tracer,
// the doctor's analysis and the block size the pipeline used.
func pipelineRun(rails int) ([]resourceUtil, *obs.StatsTracer, *critpath.Analysis, int) {
	busy := obs.NewBusyTimeTracer()
	stats := obs.NewStatsTracer()
	col := critpath.NewCollector()
	cl := must(osu.VectorTransfer(4<<20, 16, cluster.Config{
		Rails:   rails,
		Tracers: []obs.Tracer{busy, stats, col},
	}))

	// Rail lanes ("hca0.tx.r0", "hca0.tx.r1", ...) are lanes of one
	// logical resource: aggregate each group so rails>1 runs don't
	// double-list the striped stages. Utilization is per lane.
	groups := map[string]obs.RailGroup{}
	for _, g := range obs.GroupRails(busy.Wheres()) {
		groups[g.Base] = g
	}
	from, to := busy.Window()
	var out []resourceUtil
	for _, base := range []string{
		"gpu0.d2dEngine",    // stage 1: pack (sender, PackModeMemcpy2D)
		"gpu0.kernelEngine", // stage 1: pack (sender, kernel engine — auto's pick here)
		"gpu0.d2hEngine",    // stage 2: D2H staging
		"hca0.tx",           // stage 3: RDMA write, sender link
		"hca1.rx",           // stage 3: RDMA write, receiver link
		"gpu1.h2dEngine",    // stage 4: H2D staging
		"gpu1.d2dEngine",    // stage 5: unpack (receiver, PackModeMemcpy2D)
		"gpu1.kernelEngine", // stage 5: unpack (receiver, kernel engine)
	} {
		tracks := []string{base}
		if g, ok := groups[base]; ok {
			tracks = g.Tracks
		}
		var busyTotal sim.Time
		for _, tr := range tracks {
			busyTotal += busy.Busy(tr)
		}
		util := 0.0
		if to > from {
			util = float64(busyTotal) / float64((to-from)*sim.Time(len(tracks)))
		}
		out = append(out, resourceUtil{
			Resource:    base,
			Rails:       len(tracks),
			BusyUs:      busyTotal.Micros(),
			Utilization: util,
		})
	}

	as := col.Analyze()
	if len(as) != 1 {
		log.Fatalf("repro: pipeline run analyzed %d transfers, want 1", len(as))
	}
	return out, stats, as[0], cl.World.Config().BlockSize
}

// must exits nonzero on any benchmark failure — including the end-of-run
// device-leak gates inside the osu package.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// hostRoundTrip measures a 1 MB contiguous host-to-host transfer under
// the given rendezvous protocol.
func hostRoundTrip(mode mpi.RendezvousMode) sim.Time {
	cfg := cluster.Config{NoGPU: true}
	cfg.MPI.Rendezvous = mode
	cl := cluster.New(cfg)
	var elapsed sim.Time
	err := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		buf := r.AllocHost(1 << 20)
		defer r.FreeHost(buf)
		if r.Rank() == 0 {
			t0 := r.Now()
			r.Send(buf, 1<<20, datatype.Byte, 1, 0)
			r.Recv(buf, 0, datatype.Byte, 1, 1)
			elapsed = r.Now() - t0
		} else {
			r.Recv(buf, 1<<20, datatype.Byte, 0, 0)
			r.Send(buf, 0, datatype.Byte, 0, 1)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return elapsed
}

// pipelineTrace runs one traced 1 MB transfer and renders Figure 3.
func pipelineTrace() string {
	trace := &core.PipelineTrace{}
	must(osu.VectorTransfer(1<<20, 16, cluster.Config{Tracers: []obs.Tracer{trace}}))
	head := trace.String()
	if lines := strings.SplitAfterN(head, "\n", 8); len(lines) == 8 {
		head = strings.Join(lines[:7], "") + "(...)\n"
	}
	if trace.Overlapped() {
		head += "Overlap confirmed: packing still running after the first chunk hit the wire.\n"
	}
	return head
}
