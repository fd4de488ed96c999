// Package bench holds the top-level benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation section, plus
// ablation benches for the design choices called out in DESIGN.md.
//
// Wall-clock ns/op measures the simulator; the reproduced quantity — the
// virtual latency or iteration time the paper reports — is exported as the
// custom metrics "virt-us" (microseconds) or "improvement-%" so `go test
// -bench` output can be compared against the paper directly.
//
// Benchmarks run at benchmark-friendly geometry; the cmd/ binaries run the
// full sweeps.
package bench

import (
	"testing"

	"mv2sim/internal/cluster"
	"mv2sim/internal/datatype"
	"mv2sim/internal/halo3d"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/osu"
	"mv2sim/internal/shoc"
	"mv2sim/internal/sim"
	"mv2sim/internal/transpose"
)

// reportVirt attaches the reproduced virtual-time result to the bench.
func reportVirt(b *testing.B, t sim.Time) {
	b.ReportMetric(t.Micros(), "virt-us")
}

// --- Figure 2: non-contiguous pack schemes -------------------------------

func benchPack(b *testing.B, scheme osu.PackScheme, size int) {
	var last sim.Time
	for i := 0; i < b.N; i++ {
		lat, err := osu.PackLatency(scheme, size, osu.PackConfig{Iters: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = lat
	}
	reportVirt(b, last)
}

// benchVectorLat runs one VectorLatency measurement, failing the bench on
// error (including the end-of-run device-leak gate).
func benchVectorLat(b *testing.B, d osu.Design, size int, cfg osu.VectorConfig) sim.Time {
	b.Helper()
	lat, err := osu.VectorLatency(d, size, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return lat
}

func BenchmarkFig2PackSmall(b *testing.B) {
	// The 4 KB anchor point of Figure 2(a) / section I-A.
	b.Run("nc2nc", func(b *testing.B) { benchPack(b, osu.PackD2HNC2NC, 4<<10) })
	b.Run("nc2c", func(b *testing.B) { benchPack(b, osu.PackD2HNC2C, 4<<10) })
	b.Run("nc2c2c", func(b *testing.B) { benchPack(b, osu.PackD2D2HNC2C2C, 4<<10) })
}

func BenchmarkFig2PackLarge(b *testing.B) {
	// The 4 MB point of Figure 2(b).
	b.Run("nc2nc", func(b *testing.B) { benchPack(b, osu.PackD2HNC2NC, 4<<20) })
	b.Run("nc2c2c", func(b *testing.B) { benchPack(b, osu.PackD2D2HNC2C2C, 4<<20) })
}

// --- Figure 5: vector latency across the three designs -------------------

func benchVector(b *testing.B, d osu.Design, size int) {
	var last sim.Time
	for i := 0; i < b.N; i++ {
		last = benchVectorLat(b, d, size, osu.VectorConfig{Iters: 1})
	}
	reportVirt(b, last)
}

func BenchmarkFig5VectorSmall(b *testing.B) {
	for _, d := range osu.Designs {
		d := d
		b.Run(d.String(), func(b *testing.B) { benchVector(b, d, 4<<10) })
	}
}

func BenchmarkFig5VectorLarge(b *testing.B) {
	for _, d := range osu.Designs {
		d := d
		b.Run(d.String(), func(b *testing.B) { benchVector(b, d, 1<<20) })
	}
}

// --- Section IV-B: block-size ablation ------------------------------------

func BenchmarkBlockSizeSweep(b *testing.B) {
	for _, bs := range []int{16 << 10, 64 << 10, 256 << 10} {
		bs := bs
		b.Run(bName(bs), func(b *testing.B) {
			cfg := osu.VectorConfig{Iters: 1}
			cfg.Cluster.MPI.BlockSize = bs
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = benchVectorLat(b, osu.DesignMV2GPUNC, 1<<20, cfg)
			}
			reportVirt(b, last)
		})
	}
}

func bName(n int) string {
	if n >= 1<<20 {
		return "block1M"
	}
	switch n {
	case 16 << 10:
		return "block16K"
	case 64 << 10:
		return "block64K"
	case 256 << 10:
		return "block256K"
	}
	return "block?"
}

// --- Table I: code complexity ---------------------------------------------

func BenchmarkTable1Complexity(b *testing.B) {
	var loc int
	for i := 0; i < b.N; i++ {
		def := shoc.AnalyzeComplexity(shoc.Def)
		nc := shoc.AnalyzeComplexity(shoc.NC)
		loc = def.LinesOfCode - nc.LinesOfCode
	}
	b.ReportMetric(float64(loc), "loc-saved")
}

// --- Tables II & III: Stencil2D --------------------------------------------

func benchStencil(b *testing.B, prec shoc.Precision, grid int) {
	const scale = 64
	g := shoc.PaperGrids(scale)[grid]
	var def, nc sim.Time
	for i := 0; i < b.N; i++ {
		rd, err := shoc.Run(shoc.ScaledParams(g, prec, shoc.Def, scale, 1))
		if err != nil {
			b.Fatal(err)
		}
		rn, err := shoc.Run(shoc.ScaledParams(g, prec, shoc.NC, scale, 1))
		if err != nil {
			b.Fatal(err)
		}
		def, nc = rd.MedianIter, rn.MedianIter
	}
	reportVirt(b, nc)
	b.ReportMetric(100*(1-float64(nc)/float64(def)), "improvement-%")
}

func BenchmarkTable2Stencil(b *testing.B) {
	for i, label := range []string{"1x8", "8x1", "2x4", "4x2"} {
		i := i
		b.Run(label, func(b *testing.B) { benchStencil(b, shoc.F32, i) })
	}
}

func BenchmarkTable3Stencil(b *testing.B) {
	for i, label := range []string{"1x8", "8x1", "2x4", "4x2"} {
		i := i
		b.Run(label, func(b *testing.B) { benchStencil(b, shoc.F64, i) })
	}
}

// --- Figure 6: communication breakdown -------------------------------------

func BenchmarkFig6Breakdown(b *testing.B) {
	var eastCuda sim.Time
	for i := 0; i < b.N; i++ {
		bd, err := shoc.RunBreakdown(64, 1)
		if err != nil {
			b.Fatal(err)
		}
		eastCuda = bd.Get("east_cuda")
	}
	reportVirt(b, eastCuda)
}

// --- Ablations beyond the paper's figures ----------------------------------

// BenchmarkEagerThreshold shows the eager/rendezvous tradeoff: a 32 KB
// device vector under different eager limits.
func BenchmarkEagerThreshold(b *testing.B) {
	for _, limit := range []int{1 << 10, 16 << 10, 64 << 10} {
		limit := limit
		b.Run(bName16(limit), func(b *testing.B) {
			cfg := osu.VectorConfig{Iters: 1}
			cfg.Cluster.MPI.EagerLimit = limit
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = benchVectorLat(b, osu.DesignMV2GPUNC, 32<<10, cfg)
			}
			reportVirt(b, last)
		})
	}
}

func bName16(n int) string {
	switch n {
	case 1 << 10:
		return "eager1K"
	case 16 << 10:
		return "eager16K"
	case 64 << 10:
		return "eager64K"
	}
	return "eager?"
}

// BenchmarkVbufPool shows staging-pool pressure on pipeline depth: a 1 MB
// *contiguous* transfer (16 chunks, no pack stage, so staging depth is the
// limiter) with shrinking vbuf pools. For strided vectors the pool barely
// matters because device-side packing dominates — exactly the paper's
// observation that pack latency determines pipeline performance.
func BenchmarkVbufPool(b *testing.B) {
	for _, count := range []int{2, 4, 64} {
		count := count
		b.Run(vName(count), func(b *testing.B) {
			cfg := osu.VectorConfig{
				Iters:      1,
				PitchBytes: 4, // pitch == element size: fully contiguous
				Cluster:    cluster.Config{VbufCount: count},
			}
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = benchVectorLat(b, osu.DesignMV2GPUNC, 1<<20, cfg)
			}
			reportVirt(b, last)
		})
	}
}

func vName(n int) string {
	switch n {
	case 2:
		return "vbufs2"
	case 4:
		return "vbufs4"
	case 64:
		return "vbufs64"
	}
	return "vbufs?"
}

// BenchmarkPackOffloadAblation quantifies the paper's central design
// choice at library level: the identical pipeline with GPU-offloaded
// packing (default) vs host-staged strided PCIe packing (HostStagedPack).
func BenchmarkPackOffloadAblation(b *testing.B) {
	for _, staged := range []bool{false, true} {
		staged := staged
		name := "gpu-offload"
		if staged {
			name = "host-staged"
		}
		b.Run(name, func(b *testing.B) {
			cfg := osu.VectorConfig{Iters: 1, PitchBytes: 16}
			cfg.Cluster.Core.HostStagedPack = staged
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = benchVectorLat(b, osu.DesignMV2GPUNC, 1<<20, cfg)
			}
			reportVirt(b, last)
		})
	}
}

// BenchmarkGPUDirect measures what the paper's successors (GPUDirect RDMA,
// MVAPICH2-GDR) gained over the host-staged pipeline on the same testbed:
// the same 1 MB vector with and without the two staging stages, plus the
// fully zero-copy contiguous case.
func BenchmarkGPUDirect(b *testing.B) {
	cases := []struct {
		name  string
		gdr   bool
		pitch int
	}{
		{"staged-vector", false, 16},
		{"gdr-vector", true, 16},
		{"gdr-contiguous", true, 4},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := osu.VectorConfig{Iters: 1, PitchBytes: c.pitch}
			cfg.Cluster.GPUDirect = c.gdr
			var last sim.Time
			for i := 0; i < b.N; i++ {
				last = benchVectorLat(b, osu.DesignMV2GPUNC, 1<<20, cfg)
			}
			reportVirt(b, last)
		})
	}
}

// BenchmarkTranspose measures the distributed datatype transpose — the
// all-pairs exchange of column-vector blocks across 8 GPUs.
func BenchmarkTranspose(b *testing.B) {
	var last sim.Time
	for i := 0; i < b.N; i++ {
		res, err := transpose.Run(transpose.Params{Ranks: 8, N: 1024})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Elapsed
	}
	reportVirt(b, last)
}

// BenchmarkHalo3D measures the 3D subarray halo exchange on 8 GPUs.
func BenchmarkHalo3D(b *testing.B) {
	var last sim.Time
	for i := 0; i < b.N; i++ {
		res, err := halo3d.Run(halo3d.Params{PZ: 2, PY: 2, PX: 2, NZ: 48, NY: 48, NX: 48, Iters: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res.MedianIter
	}
	reportVirt(b, last)
}

// BenchmarkPackPlanCache measures the wall-clock cost of chunk packing
// with the commit-time cached chunk plan versus the uncached range walk
// that re-derives segment geometry on every call. The cached path must be
// allocation-free in steady state (also pinned by a plan_test AllocsPerRun
// test) and beat the uncached ns/op.
func BenchmarkPackPlanCache(b *testing.B) {
	// An irregular (indexed) type the analytic uniform-2D path rejects, so
	// both paths exercise the generic segment machinery.
	blocklens := make([]int, 64)
	displs := make([]int, 64)
	for i := range blocklens {
		blocklens[i] = 3 + i%5
		displs[i] = i * 12
	}
	idx, err := datatype.Indexed(blocklens, displs, datatype.Float32)
	if err != nil {
		b.Fatal(err)
	}
	idx.MustCommit()
	const count = 256
	chunk := mpi.DefaultBlockSize
	total := count * idx.Size()
	src := mem.NewHostSpace("bench.src", count*idx.Extent()+64)
	dst := mem.NewHostSpace("bench.dst", total+64)

	b.Run("cached", func(b *testing.B) {
		plan := idx.ChunkPlan(count, chunk)
		chunks := plan.Chunks()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := i % chunks
			plan.PackChunk(dst.Base(), src.Base(), c)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		chunks := (total + chunk - 1) / chunk
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := i % chunks
			off := c * chunk
			idx.PackRange(dst.Base(), src.Base(), count, off, min(chunk, total-off))
		}
	})
}

// BenchmarkEngineEventLoop measures raw event-loop throughput of the
// discrete-event engine: one process sleeping through b.N timer events.
// Each event is a heap push and pop plus one coroutine switch out of the
// process and back: the cost of a rank's wake-up.
func BenchmarkEngineEventLoop(b *testing.B) {
	e := sim.New()
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Shutdown()
}

// BenchmarkEngineSpawn measures one process spawn-and-finish: a chain of
// b.N processes, each spawning its successor before it returns, so the
// two carriers they run on are reused throughout. No message path
// spawns a process: only the ranks are processes.
func BenchmarkEngineSpawn(b *testing.B) {
	e := sim.New()
	n := 0
	var body func(p *sim.Proc)
	body = func(p *sim.Proc) {
		if n++; n < b.N {
			e.Spawn("bench", body)
		}
	}
	e.Spawn("bench", body)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Shutdown()
}

// BenchmarkRailsSweep measures streaming bandwidth of a wire-bound
// (wide-row) device vector across HCA rail counts. Single-rail is
// wire-limited (~3.0 GB/s); two rails shift the bottleneck to the
// per-direction PCIe copy engine; four rails add nothing beyond that.
func BenchmarkRailsSweep(b *testing.B) {
	for _, rails := range []int{1, 2, 4} {
		rails := rails
		b.Run(railName(rails), func(b *testing.B) {
			cfg := osu.VectorConfig{ElemBytes: 8 << 10, PitchBytes: 16 << 10}
			cfg.Cluster.Rails = rails
			var bw float64
			for i := 0; i < b.N; i++ {
				var err error
				bw, err = osu.Bandwidth(1<<20, 4, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bw, "virt-MB/s")
		})
	}
}

func railName(n int) string {
	switch n {
	case 1:
		return "rails1"
	case 2:
		return "rails2"
	case 4:
		return "rails4"
	}
	return "rails?"
}

// BenchmarkRendezvousProtocol compares put-based (the paper's) and
// get-based (RGET) rendezvous for a 1 MB contiguous host transfer.
func BenchmarkRendezvousProtocol(b *testing.B) {
	for _, mode := range []mpi.RendezvousMode{mpi.RendezvousPut, mpi.RendezvousGet} {
		mode := mode
		name := "put"
		if mode == mpi.RendezvousGet {
			name = "get"
		}
		b.Run(name, func(b *testing.B) {
			var last sim.Time
			for i := 0; i < b.N; i++ {
				cfg := cluster.Config{NoGPU: true}
				cfg.MPI.Rendezvous = mode
				cl := cluster.New(cfg)
				err := cl.Run(func(n *cluster.Node) {
					r := n.Rank
					buf := r.AllocHost(1 << 20)
					if r.Rank() == 0 {
						t0 := r.Now()
						r.Send(buf, 1<<20, datatype.Byte, 1, 0)
						r.Recv(buf, 0, datatype.Byte, 1, 1)
						last = r.Now() - t0
					} else {
						r.Recv(buf, 1<<20, datatype.Byte, 0, 0)
						r.Send(buf, 0, datatype.Byte, 0, 1)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportVirt(b, last)
		})
	}
}
