// Command halo3d runs the 3D 7-point stencil halo-exchange benchmark —
// the "more applications" extension of the paper's evaluation. Every face
// of the device-resident local brick travels as an MPI subarray datatype:
// Z faces contiguous, Y faces through the 2D copy engine, X faces through
// the generic pack/unpack kernels.
package main

import (
	"flag"
	"fmt"
	"log"

	"mv2sim/internal/halo3d"
	"mv2sim/internal/report"
)

func main() {
	pz := flag.Int("pz", 2, "process grid Z")
	py := flag.Int("py", 2, "process grid Y")
	px := flag.Int("px", 2, "process grid X")
	n := flag.Int("n", 128, "local brick edge length")
	iters := flag.Int("iters", 3, "iterations")
	validate := flag.Bool("validate", false, "check against the sequential reference (small sizes only)")
	flag.Parse()

	params := halo3d.Params{
		PZ: *pz, PY: *py, PX: *px,
		NZ: *n, NY: *n, NX: *n,
		Iters: *iters, Validate: *validate,
	}
	res, err := halo3d.Run(params)
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable(
		fmt.Sprintf("halo3d: %dx%dx%d ranks, %d^3 cells each, double precision", *pz, *py, *px, *n),
		"metric", "value")
	t.Add("median iteration", fmt.Sprintf("%.1f us", res.MedianIter.Micros()))
	t.Add("validated", fmt.Sprint(res.Validated))
	fmt.Println(t)
}
