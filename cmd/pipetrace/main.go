// Command pipetrace regenerates Figure 3 of the paper as a measured
// artifact: it transfers one non-contiguous vector between two GPUs and
// prints each chunk's completion time through the five pipeline stages
// (D2D pack → D2H → RDMA → H2D → D2D unpack), making the overlap between
// stages directly visible.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
)

func main() {
	msg := flag.Int("msg", 1<<20, "message size in bytes")
	pitch := flag.Int("pitch", 16, "byte pitch between 4-byte vector elements")
	rails := flag.Int("rails", mpi.DefaultRails, "HCA rails to stripe chunks across (MV2_NUM_RAILS)")
	chromeOut := flag.String("chrome", "", "write a Chrome trace_event JSON file (open in Perfetto)")
	packMode := flag.String("packmode", "auto", "pack engine: auto, memcpy2d, kernel or nic")
	unpackMode := flag.String("unpackmode", "", "unpack engine (default: same as -packmode)")
	flag.Parse()

	mode, err := core.ParsePackMode(*packMode)
	if err != nil {
		log.Fatal(err)
	}
	umode := mode
	if *unpackMode != "" {
		if umode, err = core.ParsePackMode(*unpackMode); err != nil {
			log.Fatal(err)
		}
	}

	rows := *msg / 4
	vec, vecErr := datatype.Vector(rows, 1, *pitch/4, datatype.Float32)
	if vecErr != nil {
		log.Fatal(vecErr)
	}
	vec.MustCommit()

	trace := &core.PipelineTrace{}
	var chrome *obs.ChromeTracer
	cfg := cluster.Config{GPUMemBytes: 2*rows**pitch + (64 << 20), Rails: *rails}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = umode
	if *chromeOut != "" {
		chrome = obs.NewChromeTracer()
		cfg.Tracers = []obs.Tracer{chrome}
	}
	cfg.Tracers = append(cfg.Tracers, trace)
	cl := cluster.New(cfg)
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
	fmt.Printf("Five-stage pipeline, %d-byte vector, %d-byte block chunks (completion times):\n\n",
		*msg, cl.World.Config().BlockSize)
	if *rails > 1 {
		fmt.Printf("Chunks striped round-robin across %d HCA rails.\n\n", *rails)
	}
	fmt.Println(trace)
	if trace.Overlapped() {
		fmt.Println("Overlap confirmed: packing was still running after the first chunk hit the wire.")
	}
	if chrome != nil {
		f, err := os.Create(*chromeOut)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := chrome.WriteTo(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Chrome trace: %s (%d events, %d tracks)\n", *chromeOut, chrome.Events(), len(chrome.Tracks()))
	}
}
