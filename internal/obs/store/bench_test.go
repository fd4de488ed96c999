package store

import (
	"reflect"
	"testing"
)

const reproDoc = `{
  "scale": 16,
  "figure5b_latency_us": {
    "MV2-GPU-NC": {"4194304": 1465.986, "4096": 35.004},
    "Cpy2D+Send": {"4194304": 559435.906, "4096": 571.62}
  },
  "stencil2d_median_sec": {
    "f32": [{"grid": "1x8 (64Kx1K)", "def_sec": 0.006949, "nc_sec": 0.002588}]
  },
  "pipedoctor_4mb": {"label": "figure5b_4M_rails1_auto", "wall_us": 1465.986},
  "rails_bandwidth_mbs": {"rails1": 2958.1, "rails2": 3168.9}
}`

const packDoc = `{
  "pitch_factor": 4,
  "grid": [
    {"rows": 16, "row_bytes": 4, "memcpy2d_us": 5.16, "kernel_us": 6.0, "auto": "memcpy2d", "auto_us": 5.16, "best": "memcpy2d"},
    {"rows": 128, "row_bytes": 4, "memcpy2d_us": 6.285, "kernel_us": 6.012, "auto": "memcpy2d", "auto_us": 6.285, "best": "kernel"}
  ],
  "break_even_rows": {"4": 101}
}`

const critpathDoc = `{
  "results": [
    {"label": "msg4M_rails1_memcpy2d", "msg_bytes": 4194304, "wall_us": 11019.2, "divergence": 0.031, "flagged": false}
  ]
}`

func TestExtractDetectsFormats(t *testing.T) {
	for _, tc := range []struct {
		doc, source string
	}{
		{reproDoc, "repro"},
		{packDoc, "pack"},
		{critpathDoc, "critpath"},
		{loadDoc, "load"},
	} {
		source, recs, err := Extract([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.source, err)
		}
		if source != tc.source {
			t.Fatalf("detected %q, want %q", source, tc.source)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: no records extracted", tc.source)
		}
		for _, r := range recs {
			if r.Source != tc.source || r.Metric == "" {
				t.Fatalf("%s: malformed record %+v", tc.source, r)
			}
		}
	}
	if _, _, err := Extract([]byte(`{"mystery": 1}`)); err == nil {
		t.Fatal("unrecognized bench file extracted without error")
	}
}

func TestExtractReproMetrics(t *testing.T) {
	_, recs, err := Extract([]byte(reproDoc))
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]Record{}
	for _, r := range recs {
		byMetric[r.Metric] = r
	}
	for m, want := range map[string]struct {
		value  float64
		better string
	}{
		"repro.figure5b.MV2-GPU-NC.4194304_us": {1465.986, BetterLower},
		"repro.figure5b.Cpy2D+Send.4096_us":    {571.62, BetterLower},
		"repro.stencil2d.f32.1x8.nc_sec":       {0.002588, BetterLower},
		"repro.pipedoctor_4mb.wall_us":         {1465.986, BetterLower},
		"repro.rails_bandwidth_mbs.rails1":     {2958.1, BetterHigher},
		"repro.rails_bandwidth_mbs.rails2":     {3168.9, BetterHigher},
	} {
		r, ok := byMetric[m]
		if !ok {
			t.Fatalf("metric %s missing; have %v", m, sortedKeys(byMetric))
		}
		if r.Value != want.value || r.Better != want.better {
			t.Fatalf("metric %s = %+v, want value %g better %q", m, r, want.value, want.better)
		}
	}
}

func TestExtractPackCountsMismatches(t *testing.T) {
	_, recs, err := Extract([]byte(packDoc))
	if err != nil {
		t.Fatal(err)
	}
	var mismatches, breakEven *Record
	for i, r := range recs {
		switch r.Metric {
		case "pack.crossover.auto_mismatches":
			mismatches = &recs[i]
		case "pack.crossover.break_even_rows.4":
			breakEven = &recs[i]
		}
	}
	if mismatches == nil || mismatches.Value != 1 || mismatches.Better != BetterLower {
		t.Fatalf("auto_mismatches = %+v", mismatches)
	}
	if breakEven == nil || breakEven.Value != 101 || breakEven.Better != "" {
		t.Fatalf("break_even_rows.4 = %+v (must be informational)", breakEven)
	}
}

func TestExtractIsDeterministic(t *testing.T) {
	for _, doc := range []string{reproDoc, packDoc, critpathDoc, loadDoc} {
		_, a, err := Extract([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := Extract([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("extraction order not deterministic:\n%+v\nvs\n%+v", a, b)
		}
	}
}

const loadDoc = `{
  "load_schema": 1,
  "seed": 1,
  "pairs": 4,
  "curves": [
    {
      "process": "poisson",
      "points": [
        {"offered_mbs": 2000, "goodput_mbs": 1950, "p50_us": 150, "p99_us": 300},
        {"offered_mbs": 8000, "goodput_mbs": 7500, "p50_us": 180, "p99_us": 400},
        {"offered_mbs": 16000, "goodput_mbs": 10400, "p50_us": 900, "p99_us": 2500}
      ],
      "knee_index": 1,
      "knee_offered_mbs": 8000,
      "peak_goodput_mbs": 10400
    }
  ]
}`

func TestExtractLoadDirections(t *testing.T) {
	source, recs, err := Extract([]byte(loadDoc))
	if err != nil {
		t.Fatal(err)
	}
	if source != "load" {
		t.Fatalf("detected %q, want load", source)
	}
	byMetric := map[string]Record{}
	for _, r := range recs {
		byMetric[r.Metric] = r
	}
	for metric, want := range map[string]struct {
		value  float64
		better string
	}{
		"load.poisson.knee_offered_mbs": {8000, BetterHigher},
		"load.poisson.peak_goodput_mbs": {10400, BetterHigher},
		"load.poisson.pt0.goodput_mbs":  {1950, BetterHigher},
		"load.poisson.pt1.p99_us":       {400, BetterLower}, // at the knee: gated
		"load.poisson.pt2.p99_us":       {2500, ""},         // past the knee: informational
		"load.poisson.pt2.offered_mbs":  {16000, ""},        // stimulus: informational
		"load.poisson.pt2.goodput_mbs":  {10400, BetterHigher},
	} {
		r, ok := byMetric[metric]
		if !ok {
			t.Fatalf("metric %s missing; have %v", metric, sortedKeys(byMetric))
		}
		if r.Value != want.value || r.Better != want.better {
			t.Fatalf("metric %s = %+v, want value %g better %q", metric, r, want.value, want.better)
		}
	}
}

func TestExtractLoadRejectsFutureSchema(t *testing.T) {
	if _, _, err := Extract([]byte(`{"load_schema": 2, "curves": []}`)); err == nil {
		t.Fatal("future load schema extracted without error")
	}
}
