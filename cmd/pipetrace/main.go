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

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/osu"
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

	trace := &core.PipelineTrace{}
	var chrome *obs.ChromeTracer
	cfg := cluster.Config{Rails: *rails}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = umode
	if *chromeOut != "" {
		chrome = obs.NewChromeTracer()
		cfg.Tracers = []obs.Tracer{chrome}
	}
	cfg.Tracers = append(cfg.Tracers, trace)
	cl, err := osu.VectorTransfer(*msg, *pitch, cfg)
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
		if err := chrome.WriteFile(*chromeOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Chrome trace: %s (%d events, %d tracks)\n", *chromeOut, chrome.Events(), len(chrome.Tracks()))
	}
}
