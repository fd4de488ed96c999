package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mv2sim/internal/cluster"
	"mv2sim/internal/load"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
)

// bench runs one workload in this process: warm-up ops, timed ops until
// the time budget is spent, one traced op, and for the open-loop workload
// the offered-load ladder.
type bench struct {
	w      workload
	sc     scale
	seed   int64
	budget time.Duration
	log    io.Writer
	// afterRun, when set, runs between Run and the delivery check. Tests
	// use it to corrupt a receive buffer.
	afterRun func(o op)
	cal      calibration
}

// calibration is a fixed kernel of standard-library work that shares no
// code with the simulator: clear and fill 8 MiB, hash 1 MiB, sort 50 000
// ints. It runs before every timed op, and host-speed metrics are
// reported in units of its lower-quartile time over the run. That cancels
// the host's own speed changes: on a shared 2-CPU host one fixed loop
// took anywhere from 167 to 395 ms within a minute, in CPU time as in
// wall time.
type calibration struct {
	buf  []byte
	keys []int
}

func (c *calibration) run() float64 {
	if c.buf == nil {
		c.buf, c.keys = make([]byte, 8<<20), make([]int, 50_000)
	}
	t := time.Now()
	clear(c.buf)
	for i := range c.buf {
		c.buf[i] = byte(i * 31)
	}
	sum := sha256.Sum256(c.buf[:1<<20])
	for i := range c.keys {
		c.keys[i] = (i*7919 + int(sum[i%len(sum)])) % 50_021
	}
	sort.Ints(c.keys)
	return time.Since(t).Seconds()
}

// report is one workload run: every metric as a summary over the ops
// that produced it, plus the failure tally.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Tails are the open-loop sojourn percentiles at the operating point,
	// as printed: value only when resolved, always with the sample count.
	Tails []string `json:"tails,omitempty"`
}

func (r *report) fail(err error) {
	r.Failed++
	r.Failures = append(r.Failures, err.Error())
}

// opSample is the host-side cost of one op, phase by phase.
type opSample struct {
	wall, build, setup, run, check float64 // seconds
	events                         uint64
	allocMB, buildMB, setupMB      float64 // heap bytes allocated, MB
	runMB                          float64
	runMallocs                     uint64
	gcCycles                       uint32
	gcPauseMs                      float64
	cal                            float64 // seconds of the calibration kernel run just before
}

// lapper times consecutive phases and the heap allocation inside each.
type lapper struct {
	t  time.Time
	ms runtime.MemStats
}

func newLapper() *lapper {
	l := &lapper{}
	runtime.ReadMemStats(&l.ms)
	l.t = time.Now()
	return l
}

// lap closes the current phase: its seconds, MB allocated and mallocs.
// Phases tile the op: reading the counters is charged to the next phase.
func (l *lapper) lap() (sec, allocMB float64, mallocs uint64) {
	now := time.Now()
	prev := l.ms
	runtime.ReadMemStats(&l.ms)
	sec = now.Sub(l.t).Seconds()
	allocMB = float64(l.ms.TotalAlloc-prev.TotalAlloc) / 1e6
	mallocs = l.ms.Mallocs - prev.Mallocs
	l.t = now
	return sec, allocMB, mallocs
}

// runOp runs one op through its timed phases. The cluster is returned
// for layer counters whenever it was built; err is the first failure of
// construction, the run, the delivery check, the frees or the leak gate.
func (b *bench) runOp(o op, tracers []obs.Tracer) (s opSample, cl *cluster.Cluster, err error) {
	runtime.GC()
	l := newLapper()
	start, m0 := l.t, l.ms

	err = o.datatypes()
	s.build, s.buildMB, _ = l.lap()
	if err != nil {
		return s, nil, fmt.Errorf("%s: datatypes: %w", b.w.name, err)
	}

	cfg := o.config()
	cfg.Tracers = tracers
	cl = cluster.New(cfg)
	s.setup, s.setupMB, _ = l.lap()

	prepErr := o.prepare(cl)
	prep, _, _ := l.lap()
	var runErr error
	if prepErr == nil {
		runErr = cl.Run(o.rank)
	}
	s.run, s.runMB, s.runMallocs = l.lap()
	s.events = cl.Engine.Events()

	if b.afterRun != nil {
		b.afterRun(o)
	}
	var checkErr error
	if prepErr == nil && runErr == nil {
		checkErr = o.check()
	}
	relErr := o.release()
	leakErr := cl.CheckDeviceLeaks()
	chk, _, _ := l.lap()
	s.wall = l.t.Sub(start).Seconds()

	// In-run delivery checks are verification, not simulation.
	inRun := o.inRunCheck().Seconds()
	s.run -= inRun
	s.check = prep + chk + inRun
	m1 := l.ms
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	for _, e := range []error{prepErr, runErr, checkErr, relErr, leakErr} {
		if e != nil {
			return s, cl, fmt.Errorf("%s: %w", b.w.name, e)
		}
	}
	return s, cl, nil
}

// run executes the whole protocol and returns the report.
func (b *bench) run() *report {
	rep := &report{Workload: b.w.name, Seed: b.seed, Metrics: map[string]summary{}}
	for k := 0; k < b.sc.warmup; k++ {
		rep.Attempted++
		if _, _, err := b.runOp(b.w.newOp(b.sc, b.seed, k), nil); err != nil {
			rep.fail(fmt.Errorf("warm-up: %w", err))
		}
	}

	var samples []opSample
	// Virtual results of the timed ops among the first minOps, so the
	// virtual metrics are the same for every run of a seed, however many
	// ops its time budget allows. first is op 0's.
	var virt []map[string]float64
	var first map[string]float64
	timed := time.Now()
	for k := 0; k < b.sc.minOps || time.Since(timed) < b.budget; k++ {
		o := b.w.newOp(b.sc, b.seed, k)
		rep.Attempted++
		cal := b.cal.run()
		s, _, err := b.runOp(o, nil)
		s.cal = cal
		if err != nil {
			rep.fail(err)
			continue
		}
		v := withEvents(o.virtual(), s)
		if k == 0 {
			first = v
			if lo, ok := o.(*loadOp); ok {
				rep.Tails = []string{tail(lo.sojourn, 50), tail(lo.sojourn, 99), tail(lo.sojourn, 99.9)}
			}
		}
		// A closed-loop op's virtual results depend on the workload alone.
		if b.w.closed && len(virt) > 0 && !maps.Equal(virt[0], v) {
			rep.fail(fmt.Errorf("%s: op %d virtual results %v differ from %v", b.w.name, k, v, virt[0]))
			continue
		}
		if k < b.sc.minOps {
			virt = append(virt, v)
		}
		samples = append(samples, s)
	}
	peakRSS := peakRSSMB()
	fmt.Fprintf(b.log, "%s: %d timed ops in %.1fs\n", b.w.name, len(samples), time.Since(timed).Seconds())

	layers := b.tracedOp(rep, first, samples)
	if !b.w.closed {
		b.ladder(rep, layers)
	}
	b.summarize(rep, samples, virt, layers, peakRSS)
	return rep
}

// withEvents adds the engine's event count to an op's virtual results:
// the model decides it, so it must repeat like any virtual-clock result.
func withEvents(v map[string]float64, s opSample) map[string]float64 {
	v["sim.events"] = float64(s.events)
	return v
}

// tracedOp replays op 0 with every tracer attached and returns the
// virtual per-layer metrics. Its virtual results must equal the untraced
// op 0's; on closed-loop workloads every transfer's critical-path
// attribution must sum exactly to its wall time.
func (b *bench) tracedOp(rep *report, first map[string]float64, samples []opSample) map[string]float64 {
	stats, busy, col := obs.NewStatsTracer(), obs.NewBusyTimeTracer(), critpath.NewCollector()
	o := b.w.newOp(b.sc, b.seed, 0)
	rep.Attempted++
	s, cl, err := b.runOp(o, []obs.Tracer{stats, busy, col})
	if err != nil {
		rep.fail(fmt.Errorf("traced op: %w", err))
	}
	if cl == nil {
		return map[string]float64{}
	}
	layers := traceLayers(cl, stats, busy, col)
	if b.w.closed {
		buckets, inexact := critpathBuckets(col)
		maps.Copy(layers, buckets)
		if inexact > 0 {
			rep.fail(fmt.Errorf("%s: %d transfers' critical-path buckets do not sum to their wall time", b.w.name, inexact))
		}
	}
	if v := withEvents(o.virtual(), s); first != nil && !maps.Equal(first, v) {
		rep.fail(fmt.Errorf("%s: traced virtual results %v differ from untraced %v", b.w.name, v, first))
	}
	if len(samples) > 0 {
		walls := make([]float64, len(samples))
		for i, x := range samples {
			walls[i] = x.wall
		}
		layers["obs.trace_overhead"] = s.wall / summarize(walls).Median
	}
	return layers
}

// kneeP99Us is the latency limit of the load ladder: the knee is the
// highest offered rate whose p99 sojourn stays within it while goodput
// keeps up with the offered load.
const kneeP99Us = 1000

// ladder runs load-poisson's op-0 schedule once at each offered rate and
// records the per-rate tails, the knee and the capacity.
func (b *bench) ladder(rep *report, layers map[string]float64) {
	for _, rate := range b.sc.ladder {
		o := newLoadOp(loadSeed(b.seed, 0), rate, b.sc.loadArrivals)
		rep.Attempted++
		if _, _, err := b.runOp(o, nil); err != nil {
			rep.fail(fmt.Errorf("ladder %.0f MB/s: %w", rate, err))
			continue
		}
		p99, ok := resolved(o.sojourn, 99)
		layers[fmt.Sprintf("load.p99_us.r%.0f", rate)] = p99
		layers[fmt.Sprintf("load.transfers.r%.0f", rate)] = float64(len(o.sojourn))
		if ok && p99 <= kneeP99Us && o.goodputMBs() >= load.KneeDeliveryRatio*o.offeredMBs() {
			layers["load.knee_mbs"] = rate
		}
		layers["load.capacity_mbs"] = o.goodputMBs()
		fmt.Fprintf(b.log, "ladder %6.0f MB/s: goodput %7.1f MB/s  %s  %s\n",
			rate, o.goodputMBs(), tail(o.sojourn, 50), tail(o.sojourn, 99))
	}
}

// summarize fills the report's metrics: host metrics over the timed ops,
// virtual results over the reference ops, layers from the traced op and
// the ladder.
func (b *bench) summarize(rep *report, samples []opSample, virt []map[string]float64, layers map[string]float64, peakRSS float64) {
	col := func(f func(opSample) float64) summary {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return summarize(xs)
	}
	one := func(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 1} }
	m := rep.Metrics
	if len(virt) > 0 {
		for key := range virt[0] {
			xs := make([]float64, len(virt))
			for i, v := range virt {
				xs[i] = v[key]
			}
			m[key] = summarize(xs)
		}
	}
	// Host speed in calibration units: each op's cost over the kernel's
	// lower-quartile time, the host's speed when nothing interferes.
	cal := col(func(s opSample) float64 { return s.cal })
	if cal.Q1 > 0 {
		m["wall_cal"] = col(func(s opSample) float64 { return s.wall / cal.Q1 })
		m["sim_events_per_cal"] = col(func(s opSample) float64 { return float64(s.events) / s.run * cal.Q1 })
	}
	m["setup_s"] = col(func(s opSample) float64 { return s.setup })
	m["alloc_mb"] = col(func(s opSample) float64 { return s.allocMB })
	m["host.wall_s"] = col(func(s opSample) float64 { return s.wall })
	m["host.cal_s"] = cal
	m["runtime.peak_rss_mb"] = one(peakRSS)

	m["datatype.build_s"] = col(func(s opSample) float64 { return s.build })
	m["datatype.alloc_mb"] = col(func(s opSample) float64 { return s.buildMB })
	m["cluster.setup_alloc_mb"] = col(func(s opSample) float64 { return s.setupMB })
	m["sim.run_s"] = col(func(s opSample) float64 { return s.run })
	m["sim.ns_per_event"] = col(func(s opSample) float64 { return s.run / float64(s.events) * 1e9 })
	m["sim.run_mallocs"] = col(func(s opSample) float64 { return float64(s.runMallocs) })
	m["sim.run_alloc_mb"] = col(func(s opSample) float64 { return s.runMB })
	m["runtime.gc_cycles"] = col(func(s opSample) float64 { return float64(s.gcCycles) })
	m["runtime.gc_pause_ms"] = col(func(s opSample) float64 { return s.gcPauseMs })
	m["verify.check_s"] = col(func(s opSample) float64 { return s.check })
	for _, d := range perLayer {
		if _, done := m[d.name]; !done {
			m[d.name] = one(layers[d.name])
		}
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
