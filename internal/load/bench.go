package load

import (
	"encoding/json"
	"fmt"
)

// LoadSchema versions the BENCH_load.json document; the perf store's
// Extract sniffs this key to route the file to ExtractLoad.
const LoadSchema = 1

// KneeDeliveryRatio defines saturation: the knee is the highest offered
// load whose goodput still reaches this fraction of it. Below the knee
// the system keeps up; above it the open-loop backlog grows and goodput
// decouples from offered load.
const KneeDeliveryRatio = 0.9

// Curve is one arrival process's load–latency sweep, points in ascending
// offered load.
type Curve struct {
	Process Process  `json:"process"`
	Points  []Result `json:"points"`
	// KneeIndex locates the saturation knee in Points (-1 when even the
	// lowest point is saturated); KneeOfferedMBs is that point's offered
	// load, 0 when KneeIndex is -1. PeakGoodputMBs is the best goodput
	// seen anywhere on the curve — the service capacity estimate.
	KneeIndex      int     `json:"knee_index"`
	KneeOfferedMBs float64 `json:"knee_offered_mbs"`
	PeakGoodputMBs float64 `json:"peak_goodput_mbs"`
}

// Doc is the BENCH_load.json document.
type Doc struct {
	Schema    int     `json:"load_schema"`
	Seed      int64   `json:"seed"`
	Pairs     int     `json:"pairs"`
	Rails     int     `json:"rails"`
	PackMode  string  `json:"packmode"`
	HorizonMs float64 `json:"horizon_ms"`
	Curves    []Curve `json:"curves"`
}

// DetectKnee returns the index of the saturation knee: the highest point
// (in the given ascending-offered order) that still delivers
// KneeDeliveryRatio of its offered load, or -1 if none does.
func DetectKnee(points []Result) int {
	knee := -1
	for i, p := range points {
		if p.OfferedMBs > 0 && p.GoodputMBs >= KneeDeliveryRatio*p.OfferedMBs {
			knee = i
		}
	}
	return knee
}

// NewCurve assembles a Curve from sweep results, detecting the knee.
func NewCurve(proc Process, points []Result) Curve {
	c := Curve{Process: proc, Points: points, KneeIndex: DetectKnee(points)}
	if c.KneeIndex >= 0 {
		c.KneeOfferedMBs = points[c.KneeIndex].OfferedMBs
	}
	for _, p := range points {
		if p.GoodputMBs > c.PeakGoodputMBs {
			c.PeakGoodputMBs = p.GoodputMBs
		}
	}
	return c
}

// Marshal renders the document as stable, indented JSON (trailing
// newline), the committed BENCH_load.json format.
func (d Doc) Marshal() ([]byte, error) {
	if d.Schema != LoadSchema {
		return nil, fmt.Errorf("load: doc schema %d, want %d", d.Schema, LoadSchema)
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
