package main

import (
	"fmt"

	"mv2sim/internal/obs/critpath"
)

// metricDef declares one reported metric. BENCHMARK.json mirrors the
// catalog below and a test keeps the two in step.
//
// virtual marks what the deterministic transport model decides: virtual
// times (unit virt_us), its task counts and utilizations. Those repeat
// exactly for a seed. Everything else is host cost, measured: seconds,
// heap MB, and host speed in calibration units (see calibration).
type metricDef struct {
	name, unit string
	virtual    bool
	higher     bool // better when higher
	// fast reports the quartile of the faster ops instead of the median:
	// interference on a shared host only ever slows an op down, so the
	// faster ops estimate the simulator's own cost with less noise.
	fast  bool
	bound float64 // e2e only: tolerated worsening, as a share of the value
}

// value is the number a metric reports for a run: the median over ops,
// or for a fast metric the lower quartile of a time (upper of a rate).
func (d metricDef) value(s summary) float64 {
	switch {
	case !d.fast:
		return s.Median
	case d.higher:
		return s.Q3
	}
	return s.Q1
}

// endToEnd is what a user of the simulator sees; every workload reports
// every one, measured on untraced ops.
var endToEnd = []metricDef{
	{name: "wall_cal", unit: "cal", fast: true, bound: 0.15},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "sim_events_per_cal", unit: "1/cal", higher: true, fast: true, bound: 0.15},
	{name: "alloc_mb", unit: "MB", bound: 0.05},
	{name: "virt_latency_us", unit: "virt_us", virtual: true, bound: 0.02},
}

// coreStages are the five pipeline stages' track names in internal/core.
var coreStages = []string{"pack", "d2h", "rdma", "h2d", "unpack"}

// ladderRates are load-poisson's offered-load points, MB/s.
var ladderRates = fullScale.ladder

// perLayer breaks the end-to-end numbers down by layer. Host layers are
// timed around the public calls in the untraced ops; virtual layers come
// from the one traced op. Metrics a workload does not exercise read 0.
var perLayer = func() []metricDef {
	host := func(name, unit string) metricDef { return metricDef{name: name, unit: unit} }
	virt := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, virtual: true} }
	ds := []metricDef{
		host("host.wall_s", "s"),
		host("host.cal_s", "s"),
		host("runtime.peak_rss_mb", "MB"),
		host("datatype.build_s", "s"),
		host("datatype.alloc_mb", "MB"),
		host("cluster.setup_alloc_mb", "MB"),
		virt("sim.events", "count"),
		host("sim.run_s", "s"),
		host("sim.ns_per_event", "ns"),
		host("sim.run_mallocs", "count"),
		host("sim.run_alloc_mb", "MB"),
		host("runtime.gc_cycles", "count"),
		host("runtime.gc_pause_ms", "ms"),
		host("verify.check_s", "s"),
		host("obs.trace_overhead", "ratio"),
	}
	for _, st := range coreStages {
		ds = append(ds, virt("core."+st+".busy_us", "virt_us"), virt("core."+st+".count", "count"))
	}
	ds = append(ds,
		virt("gpu.kernel.util", "ratio"),
		virt("gpu.copy.util", "ratio"),
		virt("gpu.kernel.busy_us", "virt_us"),
		virt("ib.tx.util", "ratio"),
		virt("ib.rdma.count", "count"),
		virt("ib.rdma.mb", "MB"),
		virt("ib.nic.count", "count"),
		virt("hostmem.vbuf_wait.count", "count"),
		virt("hostmem.vbuf_wait_us", "virt_us"),
		virt("hostmem.pool_waits", "count"),
		virt("hostmem.max_held", "count"),
		virt("mpi.eager.count", "count"),
		virt("mpi.rndv.count", "count"),
	)
	for _, b := range critpath.BucketOrder {
		ds = append(ds, virt("critpath."+b+"_us", "virt_us"))
	}
	for _, r := range ladderRates {
		ds = append(ds, virt(fmt.Sprintf("load.p99_us.r%.0f", r), "virt_us"))
	}
	for _, r := range ladderRates {
		ds = append(ds, virt(fmt.Sprintf("load.transfers.r%.0f", r), "count"))
	}
	return append(ds,
		virt("load.p99_us", "virt_us"),
		virt("load.gen_late_us", "virt_us"),
		metricDef{name: "load.knee_mbs", unit: "virt_MB/s", virtual: true, higher: true},
		metricDef{name: "load.capacity_mbs", unit: "virt_MB/s", virtual: true, higher: true},
	)
}()

// better renders a metric's direction the way BENCHMARK.json spells it.
func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}
