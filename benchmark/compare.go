package main

import (
	"fmt"
	"io"
	"math"
)

// Compare verdicts for an end-to-end metric, B against A.
const (
	withinBound = "within-bound" // moved less than the bound either way
	worse       = "worse"        // worsened by more than the bound
	better      = "better"       // improved by more than the bound
	unresolved  = "unresolved"   // either side's spread is wider than the bound
)

// verdict judges B's value against A's by the metric's bound, in the
// metric's direction.
func verdict(d metricDef, a, b summary) string {
	va, vb := d.value(a), d.value(b)
	if va == 0 || math.Max(a.iqrShare(va), b.iqrShare(vb)) > d.bound {
		return unresolved
	}
	change := (vb - va) / math.Abs(va)
	if d.higher {
		change = -change
	}
	switch {
	case change > d.bound:
		return worse
	case change < -d.bound:
		return better
	}
	return withinBound
}

// compareFiles prints, per workload present in both sets, each metric's
// value and interquartile range on both sides; end-to-end metrics also get a
// verdict. It fails when any verdict is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	as, err := readSet(pathA)
	if err != nil {
		return err
	}
	bs, err := readSet(pathB)
	if err != nil {
		return err
	}
	var regressions []string
	for _, a := range as {
		var b *report
		for _, r := range bs {
			if r.Workload == a.Workload {
				b = r
			}
		}
		if b == nil {
			fmt.Fprintf(w, "== %s: only in %s\n", a.Workload, pathA)
			continue
		}
		fmt.Fprintf(w, "== %s (A seed %d, %d failed; B seed %d, %d failed)\n", a.Workload, a.Seed, a.Failed, b.Seed, b.Failed)
		for _, set := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range set {
				sa, sb := a.Metrics[d.name], b.Metrics[d.name]
				v := "-"
				if d.bound > 0 {
					v = verdict(d, sa, sb)
				}
				if v == worse {
					regressions = append(regressions, a.Workload+" "+d.name)
				}
				fmt.Fprintf(w, "  %-32s A %12.6g iqr %-10.4g n=%-4d  B %12.6g iqr %-10.4g n=%-4d %-9s %s\n",
					d.name, d.value(sa), sa.Q3-sa.Q1, sa.N, d.value(sb), sb.Q3-sb.Q1, sb.N, d.unit, v)
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("worse beyond bound: %v", regressions)
	}
	return nil
}
