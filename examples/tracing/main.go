// Tracing: watch the paper's five-stage pipeline run.
//
// Two ranks exchange one large strided vector — the same transparent
// device-to-device send as examples/quickstart — but with the internal/obs
// tracing layer attached. Three tracers observe the identical task stream:
//
//   - ChromeTracer writes trace.json; open it at https://ui.perfetto.dev
//     to see pack/D2H/RDMA/H2D/unpack as overlapping tracks per rank,
//     HCA byte counters, and vbuf-pool occupancy.
//   - StatsTracer prints a per-kind table (how many packs, how long).
//   - BusyTimeTracer reports how hard each resource worked.
//
// Tracing is opt-in: drop the Tracers field and every instrumented hot
// path reverts to its zero-allocation fast path.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"

	"mv2sim/internal/cluster"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
)

func main() {
	chrome := obs.NewChromeTracer()
	stats := obs.NewStatsTracer()
	busy := obs.NewBusyTimeTracer()
	cl := cluster.New(cluster.Config{
		Nodes:       2,
		GPUMemBytes: 64 << 20,
		Tracers:     []obs.Tracer{chrome, stats, busy},
	})

	// A 1 MB packed message strided across a 4 MB matrix region: big
	// enough for the rendezvous pipeline to chunk it 16 ways.
	vec, err := datatype.Vector(1<<18, 1, 4, datatype.Float32)
	if err != nil {
		log.Fatal(err)
	}
	vec.MustCommit()

	err = cl.Run(func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(vec.Span(1))
		if r.Rank() == 0 {
			mem.Fill(buf, vec.Span(1), func(i int) byte { return byte(i) })
			r.Send(buf, 1, vec, 1, 0)
		} else {
			r.Recv(buf, 1, vec, 0, 0)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := chrome.WriteFile("trace.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote trace.json: %d events on %d tracks — open in https://ui.perfetto.dev\n\n",
		chrome.Events(), len(chrome.Tracks()))

	fmt.Println(stats.Table("Task kinds (one 1 MB vector send)"))

	from, to := busy.Window()
	fmt.Printf("resource utilization over the %.1f us window:\n", (to - from).Micros())
	for _, where := range []string{"gpu0.d2dEngine", "gpu0.d2hEngine", "hca0.tx", "gpu1.h2dEngine", "gpu1.d2dEngine"} {
		fmt.Printf("  %-16s %5.1f%%\n", where, 100*busy.Utilization(where, from, to))
	}
}
