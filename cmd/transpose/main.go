// Command transpose runs the distributed GPU matrix transpose across N
// simulated nodes: every block travels as a resized column-vector
// datatype, so the wire stream is the transposed data and no transpose
// kernel runs anywhere — the derived-datatype machinery (GPU-offloaded by
// the library) does all reshaping.
package main

import (
	"flag"
	"fmt"
	"log"

	"mv2sim/internal/report"
	"mv2sim/internal/transpose"
)

func main() {
	ranks := flag.Int("ranks", 8, "number of GPUs (must divide n)")
	n := flag.Int("n", 2048, "global matrix dimension (float32)")
	validate := flag.Bool("validate", true, "verify B = A^T element-for-element")
	flag.Parse()

	params := transpose.Params{Ranks: *ranks, N: *n, Validate: *validate}
	res, err := transpose.Run(params)
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable(
		fmt.Sprintf("Distributed transpose: %dx%d float32 over %d GPUs", *n, *n, *ranks),
		"metric", "value")
	t.Add("total bytes moved", report.ByteSize(*n**n*4))
	t.Add("elapsed", fmt.Sprintf("%.1f us", res.Elapsed.Micros()))
	t.Add("validated", fmt.Sprint(res.Validated))
	fmt.Println(t)
}
