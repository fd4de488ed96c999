// Command mv2bench is the repository benchmark. It drives the simulator
// only through its public entry points and measures it on two clocks:
// virtual time, what the modeled MV2-GPU-NC transport costs, and host
// time, what the simulator itself costs, split into datatype construction,
// cluster setup, the simulation run and verification. Every op checks
// byte-exact delivery and device-buffer leaks; see README.md for the
// workloads, metrics and protocol.
//
// Usage:
//
//	go run . -workload vector-4m -seed 1 -seconds 20 -trace 0 -out run.json
//	go run . -workload all -seed 1 -seconds 20 -out set.json
//	go run . -compare A.json B.json
//
// One workload runs in this process. The last line of standard output is
// a JSON object with the keys correct, attempted, failed and metrics:
// the end-to-end metrics with -trace 0, the per-layer ones with -trace 1.
// "all" runs every workload in a child process of its own, one after the
// other. The exit status is non-zero when any check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed: payload bytes and load schedules")
	seconds := flag.Int("seconds", 20, "time budget of the timed ops, seconds")
	trace := flag.Int("trace", 0, "0: result line carries end-to-end metrics; 1: per-layer metrics")
	out := flag.String("out", "", "write every metric (median, quartiles, n) of the run as a JSON set")
	cmp := flag.Bool("compare", false, "compare two sets written by -out: -compare A.json B.json")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace, *out, *cmp); err != nil {
		fmt.Fprintln(os.Stderr, "mv2bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, out string, cmp bool) error {
	if cmp {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two set files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	// The engine is the simulator's own business: a benchmark that picked
	// one would measure a configuration users do not get by default.
	if os.Getenv("MV2SIM_ENGINE") != "" {
		return errors.New("MV2SIM_ENGINE is set; unset it so the simulator's default engine is measured")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if name == "all" {
		return runAll(seed, seconds, out)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// The engine runs one event at a time, handing a baton between
	// goroutines. With more than one P a hand-off may wake a goroutine on
	// another OS thread, and on a 2-CPU host that made wall_s vary 0.30 to
	// 0.46 s between processes on eager-4k, against 0.27 to 0.31 s with one.
	runtime.GOMAXPROCS(1)
	b := &bench{w: w, sc: fullScale, seed: seed, budget: time.Duration(seconds) * time.Second, log: os.Stderr}
	rep := b.run()
	printReport(os.Stdout, rep)
	if out != "" {
		if err := writeSet(out, []*report{rep}); err != nil {
			return err
		}
	}
	if err := printResult(os.Stdout, rep, trace); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll runs every workload in a child process of its own, one at a
// time, and writes their reports as one set.
func runAll(seed int64, seconds int, out string) error {
	if out == "" {
		return errors.New("-workload all needs -out")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set []*report
	var failed []string
	for _, w := range workloads {
		part := out + "." + w.name + ".part"
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
		reps, err := readSet(part)
		os.Remove(part)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		set = append(set, reps...)
	}
	if err := writeSet(out, set); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// setFile is the -out format: one report per workload run.
type setFile struct {
	Runs []*report `json:"runs"`
}

func writeSet(path string, reps []*report) error {
	data, err := json.MarshalIndent(setFile{Runs: reps}, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s.Runs, nil
}

// printReport writes the human-readable run summary.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s, seed %d: %d ops attempted, %d failed\n", rep.Workload, rep.Seed, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	if len(rep.Tails) > 0 {
		fmt.Fprintln(w, "sojourn at the operating point:", rep.Tails)
	}
	fmt.Fprintf(w, "  %-32s %14s  %s\n", "metric", "value", "[q1, median, q3] over n ops")
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			s := rep.Metrics[d.name]
			fmt.Fprintf(w, "  %-32s %14.6g  [%.6g, %.6g, %.6g]  n=%-4d %s\n", d.name, d.value(s), s.Q1, s.Median, s.Q3, s.N, d.unit)
		}
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the one-line JSON result: end-to-end metrics with
// trace 0, per-layer metrics with trace 1.
func printResult(w io.Writer, rep *report, trace int) error {
	set := endToEnd
	if trace == 1 {
		set = perLayer
	}
	ms := map[string]value{}
	for _, d := range set {
		ms[d.name] = value{Value: d.value(rep.Metrics[d.name]), Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
