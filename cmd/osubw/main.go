// Command osubw measures osu_bw-style streaming bandwidth for
// non-contiguous device vectors under MV2-GPU-NC — an extension of the
// paper's latency-only evaluation in the direction its future work names
// ("evaluate the impact of our approach with more applications").
//
// Vector throughput saturates at the device pack engine, well below the
// QDR wire rate: the same "packing determines pipeline performance"
// observation the paper makes for latency, restated for bandwidth.
package main

import (
	"flag"
	"fmt"
	"log"

	"mv2sim/internal/core"
	"mv2sim/internal/mpi"
	"mv2sim/internal/osu"
)

func main() {
	window := flag.Int("window", 16, "messages in flight per measurement")
	rails := flag.Int("rails", mpi.DefaultRails, "HCA rails to stripe rendezvous chunks across (MV2_NUM_RAILS)")
	railSweep := flag.Bool("railsweep", false, "additionally sweep rail counts 1/2/4 at the largest message size")
	packMode := flag.String("packmode", "auto", "pack/unpack engine: auto, memcpy2d, kernel or nic")
	flag.Parse()

	mode, err := core.ParsePackMode(*packMode)
	if err != nil {
		log.Fatal(err)
	}
	sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	cfg := osu.VectorConfig{}
	cfg.Cluster.Rails = *rails
	cfg.Cluster.Core.PackMode = mode
	cfg.Cluster.Core.UnpackMode = mode
	t, err := osu.RunBandwidthTable(sizes, *window, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t)
	if *railSweep {
		// Wide rows so the pack engine is cheap and the wire is the
		// bottleneck — the regime where rail striping pays. The wide-row
		// shape stays on the copy engine at every PackMode.
		sweep := osu.VectorConfig{ElemBytes: 8 << 10, PitchBytes: 16 << 10}
		big := sizes[len(sizes)-1]
		rt, err := osu.RailsSweep(big, *window, []int{1, 2, 4}, sweep)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Println(rt)
		fmt.Println("Wide-row (8K element) vector: wire-bound, so striping raises throughput")
		fmt.Println("until the single per-direction PCIe copy engine saturates.")

		// The narrow 4-byte-row shape under the selected pack mode. Pinned
		// to memcpy2d this shape is pack-bound and rail-insensitive; under
		// auto the kernel pack leaves the wire as the bottleneck, so rails
		// pay here too.
		narrow := osu.VectorConfig{}
		narrow.Cluster.Core.PackMode = mode
		narrow.Cluster.Core.UnpackMode = mode
		nt, err := osu.RailsSweep(big, *window, []int{1, 2, 4}, narrow)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Println(nt)
		fmt.Printf("Narrow-row (4-byte element) vector under -packmode %s.\n", *packMode)
	}
}
