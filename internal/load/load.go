package load

import (
	"fmt"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/cuda"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// KindSojourn is the synthetic task kind the harness feeds into its
// MetricsTracer: one task per delivered transfer, Start at the scheduled
// arrival, End at delivery — the open-loop sojourn time, which includes
// any backlog the transfer queued behind, not just its own service.
const KindSojourn = "load_sojourn"

// Config parameterizes one load point.
type Config struct {
	// Seed drives every arrival schedule; identical seeds give
	// byte-identical runs.
	Seed int64
	// Process selects the arrival process. Default Poisson.
	Process Process
	// Pairs is the number of disjoint sender→receiver rank pairs (the
	// cluster has 2*Pairs nodes; rank 2i sends to rank 2i+1). Default 4.
	Pairs int
	// OfferedMBs is the aggregate offered load across all pairs, in MB/s
	// (1e6 bytes per second) of packed payload.
	OfferedMBs float64
	// Horizon is the arrival window: arrivals stop here, the run drains
	// afterwards. Default 5ms.
	Horizon sim.Time
	// Sizes is the packed-message-size mix, drawn uniformly. The default
	// {4 KiB, 32 KiB, 64 KiB, 256 KiB} spans the eager path, the
	// single-chunk rendezvous and the multi-chunk pipeline.
	Sizes []int
	// ElemBytes and PitchBytes shape the non-contiguous vector datatype:
	// each message of s bytes is s/ElemBytes rows of ElemBytes, strided
	// PitchBytes apart. Defaults 8 and 32 (a quarter-dense column block).
	ElemBytes  int
	PitchBytes int
	// MaxPosted bounds each receiver's posted-receive window: receive i
	// reuses the device buffer of receive i-MaxPosted and is posted only
	// after that one delivers. Default 32.
	MaxPosted int
	// Engine, Rails, PackMode, VbufCount pass through to the cluster.
	Engine    string
	Rails     int
	PackMode  core.PackMode
	VbufCount int
	// Tracers attach to the cluster's hub (trace capture, series, ...).
	Tracers []obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Process == "" {
		c.Process = Poisson
	}
	if c.Pairs == 0 {
		c.Pairs = 4
	}
	if c.OfferedMBs == 0 {
		c.OfferedMBs = 1000
	}
	if c.Horizon == 0 {
		c.Horizon = 5 * sim.Millisecond
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4 << 10, 32 << 10, 64 << 10, 256 << 10}
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 8
	}
	if c.PitchBytes == 0 {
		c.PitchBytes = 32
	}
	if c.MaxPosted == 0 {
		c.MaxPosted = 32
	}
	return c
}

// Result is one measured load point.
type Result struct {
	// OfferedMBs is the actual offered load: scheduled bytes over the
	// horizon. It differs from Config.OfferedMBs by sampling noise (and
	// systematically for bursty arrivals, whose two-state mix offers
	// less than the nominal rate).
	OfferedMBs float64 `json:"offered_mbs"`
	// GoodputMBs is delivered bytes over the makespan (first arrival to
	// last delivery). Below saturation it tracks OfferedMBs; past the
	// knee it plateaus at the pipeline's service capacity.
	GoodputMBs float64 `json:"goodput_mbs"`
	// Transfers is the number of delivered messages.
	Transfers int `json:"transfers"`
	// Sojourn-time tail, in microseconds: scheduled arrival → delivery.
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
	// MakespanMs is the full-drain wall clock in virtual milliseconds.
	MakespanMs float64 `json:"makespan_ms"`
	// VbufWaits sums pool-exhaustion events over every node and pool;
	// VbufMaxHeld is the deepest any single pool was dug into.
	VbufWaits   uint64 `json:"vbuf_waits"`
	VbufMaxHeld int    `json:"vbuf_max_held"`
}

// recorder accumulates delivery observations. Completion callbacks run
// inside the engine, which serializes tracer-visible state transitions
// identically under both engines, so no locking is needed and the
// resulting histogram is byte-deterministic.
type recorder struct {
	mt        *obs.MetricsTracer
	delivered int64
	makespan  sim.Time
	seq       uint64
}

func (rec *recorder) observe(it Item, now sim.Time, bytes int) {
	rec.seq++
	rec.mt.TaskEnd(obs.Task{
		ID: rec.seq, Kind: KindSojourn, Where: "load",
		Bytes: bytes, Chunk: -1, Start: it.At, End: now,
	})
	rec.delivered += int64(bytes)
	if now > rec.makespan {
		rec.makespan = now
	}
}

// Run executes one load point: generates every pair's schedule, drives
// the transfers through the pipeline open-loop, drains, and reports the
// sojourn tail and goodput. The run is deterministic in (Config) — the
// schedules come from the seed and the simulation is virtual-time.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Pairs < 1 {
		return Result{}, fmt.Errorf("load: need at least one pair, got %d", cfg.Pairs)
	}

	schedules := make([][]Item, cfg.Pairs)
	var scheduled, maxPairBytes int64
	total := 0
	for p := range schedules {
		schedules[p] = Schedule(cfg, p)
		b := ScheduledBytes(schedules[p])
		scheduled += b
		if b > maxPairBytes {
			maxPairBytes = b
		}
		total += len(schedules[p])
	}
	if total == 0 {
		return Result{}, fmt.Errorf("load: empty schedule (offered %.0f MB/s over %v)", cfg.OfferedMBs, cfg.Horizon)
	}

	// One committed vector datatype per message size, shared by all pairs.
	dts := make([]*datatype.Datatype, len(cfg.Sizes))
	maxSpan := 0
	for i, s := range cfg.Sizes {
		rows := s / cfg.ElemBytes
		if rows == 0 {
			rows = 1
		}
		vec, err := datatype.Vector(rows, cfg.ElemBytes, cfg.PitchBytes, datatype.Byte)
		if err != nil {
			return Result{}, fmt.Errorf("load: datatype for %d bytes: %w", s, err)
		}
		if err := vec.Commit(); err != nil {
			return Result{}, fmt.Errorf("load: commit datatype for %d bytes: %w", s, err)
		}
		dts[i] = vec
		if span := rows * cfg.PitchBytes; span > maxSpan {
			maxSpan = span
		}
	}

	// Device memory is a capacity sized for the worst case: a sender may
	// have its whole schedule in flight as packed tbufs; a receiver holds
	// MaxPosted user buffers plus their tbufs. Only allocated bytes cost
	// host memory.
	ccfg := cluster.Config{
		Nodes:     2 * cfg.Pairs,
		Engine:    cfg.Engine,
		Rails:     cfg.Rails,
		VbufCount: cfg.VbufCount,
		Core:      core.Config{PackMode: cfg.PackMode, UnpackMode: cfg.PackMode},
		Tracers:   cfg.Tracers,

		GPUMemBytes:   (cfg.MaxPosted+1)*maxSpan + int(maxPairBytes) + (32 << 20),
		HostHeapBytes: 4 << 20,
	}

	rec := &recorder{mt: obs.NewMetricsTracer()}
	cl := cluster.New(ccfg)
	runErr := cl.Run(func(n *cluster.Node) {
		pair := n.Rank.Rank() / 2
		items := schedules[pair]
		peer := n.Rank.Rank() ^ 1
		if n.Rank.Rank()%2 == 0 {
			runSender(n, items, dts, maxSpan, peer)
		} else {
			runReceiver(n, items, dts, maxSpan, peer, cfg.MaxPosted, rec)
		}
	})
	if runErr != nil {
		return Result{}, fmt.Errorf("load: %s at %.0f MB/s: %w", cfg.Process, cfg.OfferedMBs, runErr)
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		return Result{}, err
	}

	res := Result{
		OfferedMBs: float64(scheduled) / cfg.Horizon.Seconds() / 1e6,
		GoodputMBs: float64(rec.delivered) / rec.makespan.Seconds() / 1e6,
		Transfers:  total,
		MakespanMs: rec.makespan.Millis(),
	}
	quant := func(q float64) float64 {
		v, ok := rec.mt.Percentile(KindSojourn, q)
		if !ok {
			return 0
		}
		return v.Micros()
	}
	res.P50Us, res.P95Us, res.P99Us, res.P999Us = quant(0.50), quant(0.95), quant(0.99), quant(0.999)
	if h := rec.mt.Hist(KindSojourn); h != nil {
		res.MaxUs = h.Max().Micros()
	}
	for _, n := range cl.Nodes {
		for _, p := range []interface {
			Waits() uint64
			MaxHeld() int
		}{n.Pool, n.RecvPool} {
			res.VbufWaits += p.Waits()
			if p.MaxHeld() > res.VbufMaxHeld {
				res.VbufMaxHeld = p.MaxHeld()
			}
		}
	}
	return res, nil
}

// runSender replays the pair's schedule open-loop: sleep to each item's
// arrival time (never ahead of it, immediately if behind), issue the
// non-blocking send, and only at the end wait for everything — arrivals
// never throttle to the service rate.
func runSender(n *cluster.Node, items []Item, dts []*datatype.Datatype, maxSpan, peer int) {
	r, ctx := n.Rank, n.Ctx
	buf := ctx.MustMalloc(maxSpan)
	defer mustFree(ctx, buf)
	reqs := make([]*mpi.Request, len(items))
	for i, it := range items {
		if now := r.Now(); now < it.At {
			r.Proc().Sleep(it.At - now)
		}
		reqs[i] = r.Isend(buf, 1, dts[it.SizeIdx], peer, i)
	}
	r.Waitall(reqs...)
}

// runReceiver keeps a bounded posting window of rotating device buffers:
// receive i lands in buffer i mod maxPosted, posted once receive
// i-maxPosted has delivered, so no two in-flight unpacks ever share a
// buffer. Each delivery is timestamped against the item's scheduled
// arrival — the sojourn observation.
func runReceiver(n *cluster.Node, items []Item, dts []*datatype.Datatype,
	maxSpan, peer, maxPosted int, rec *recorder) {
	r, ctx := n.Rank, n.Ctx
	if maxPosted > len(items) {
		maxPosted = len(items)
	}
	bufs := make([]mem.Ptr, maxPosted)
	for i := range bufs {
		bufs[i] = ctx.MustMalloc(maxSpan)
	}
	defer func() {
		for _, b := range bufs {
			mustFree(ctx, b)
		}
	}()
	reqs := make([]*mpi.Request, len(items))
	for i, it := range items {
		if i >= maxPosted {
			r.Wait(reqs[i-maxPosted])
		}
		it := it
		q := r.Irecv(bufs[i%maxPosted], 1, dts[it.SizeIdx], peer, i)
		reqs[i] = q
		q.OnComplete(func() { rec.observe(it, r.Now(), it.Bytes) })
	}
	tail := len(items) - maxPosted
	if tail < 0 {
		tail = 0
	}
	r.Waitall(reqs[tail:]...)
}

func mustFree(ctx *cuda.Ctx, p mem.Ptr) {
	if err := ctx.Free(p); err != nil {
		panic(err)
	}
}
