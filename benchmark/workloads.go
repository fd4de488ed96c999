package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mv2sim/internal/cluster"
	"mv2sim/internal/cuda"
	"mv2sim/internal/datatype"
	"mv2sim/internal/load"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/sim"
)

// scale sizes every workload. fullScale is the benchmark; tests run
// smallScale through the same code paths.
type scale struct {
	vectorRows   int       // vector-4m: 4 B rows per vector (1 Mi rows = 4 MiB packed)
	eagerTrips   int       // eager-4k: round trips per op
	haloEdge     int       // halo-subarray: brick edge in f64 cells
	haloIters    int       // halo-subarray: exchanges per op
	loadArrivals int       // load-poisson: target arrivals per load point
	ladder       []float64 // load-poisson: offered MB/s points, ascending
	warmup       int       // discarded ops before timing
	minOps       int       // timed ops even when the time budget is spent
}

var fullScale = scale{
	vectorRows:   1 << 20,
	eagerTrips:   2000,
	haloEdge:     64,
	haloIters:    20,
	loadArrivals: 1200,
	ladder:       []float64{2000, 4000, 6000, 8000, 10000, 12000},
	warmup:       2,
	minOps:       5,
}

var smallScale = scale{
	vectorRows:   1 << 14,
	eagerTrips:   20,
	haloEdge:     8,
	haloIters:    3,
	loadArrivals: 150,
	ladder:       []float64{2000, 12000},
	warmup:       1,
	minOps:       2,
}

// An op is one unit of a workload, built fresh each time and driven by
// the harness through the phases it times: datatypes (constructors and
// Commit), cluster.New with config, prepare (device buffers and seeded
// payload), Run with rank as every rank's program, then check and
// release. virtual reports the op's virtual-clock results.
type op interface {
	datatypes() error
	config() cluster.Config
	prepare(cl *cluster.Cluster) error
	rank(n *cluster.Node)
	check() error
	release() error
	virtual() map[string]float64
	// inRunCheck is host time spent verifying deliveries inside Run.
	inRunCheck() time.Duration
}

// workload is one named benchmark input: how to build the k-th op of a
// run for a seed, and whether it is closed-loop (each transfer waits for
// the previous one) or open-loop (transfers arrive on a schedule).
type workload struct {
	name   string
	closed bool
	newOp  func(sc scale, seed int64, k int) op
}

var workloads = []workload{
	{name: "vector-4m", closed: true, newOp: func(sc scale, seed int64, _ int) op {
		return &vectorOp{seed: seed, rows: sc.vectorRows, elem: 4, pitch: 64, sends: 3}
	}},
	{name: "eager-4k", closed: true, newOp: func(sc scale, seed int64, _ int) op {
		return &eagerOp{seed: seed, rows: 1024, elem: 4, pitch: 64, trips: sc.eagerTrips}
	}},
	{name: "halo-subarray", closed: true, newOp: func(sc scale, seed int64, _ int) op {
		return &haloOp{seed: seed, edge: sc.haloEdge, iters: sc.haloIters}
	}},
	{name: "load-poisson", closed: false, newOp: func(sc scale, seed int64, k int) op {
		return newLoadOp(loadSeed(seed, k), loadOpRate, sc.loadArrivals)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// payload returns n seeded bytes; stream separates independent buffers of
// one op.
func payload(seed int64, stream, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed*1_000_003 + int64(stream))).Read(b)
	return b
}

// samePacked reports whether count=1 of ta at a and of tb at b pack to
// identical bytes: byte-exact delivery as the datatype layer sees it.
func samePacked(ta *datatype.Datatype, a mem.Ptr, tb *datatype.Datatype, b mem.Ptr) bool {
	pa, pb := make([]byte, ta.Size()), make([]byte, tb.Size())
	ta.PackBytes(pa, a, 1)
	tb.PackBytes(pb, b, 1)
	return bytes.Equal(pa, pb)
}

// devBufs tracks an op's device allocations so release frees exactly
// what prepare got, whichever phase failed.
type devBufs struct {
	ctxs []*cuda.Ctx
	ptrs []mem.Ptr
}

func (d *devBufs) alloc(ctx *cuda.Ctx, n int) (mem.Ptr, error) {
	p, err := ctx.Malloc(n)
	if err != nil {
		return mem.Ptr{}, fmt.Errorf("device alloc of %d bytes: %w", n, err)
	}
	d.ctxs = append(d.ctxs, ctx)
	d.ptrs = append(d.ptrs, p)
	return p, nil
}

func (d *devBufs) release() error {
	var errs []error
	for i, p := range d.ptrs {
		errs = append(errs, d.ctxs[i].Free(p))
	}
	d.ctxs, d.ptrs = nil, nil
	return errors.Join(errs...)
}

func (d *devBufs) inRunCheck() time.Duration { return 0 }

// vectorOp is vector-4m: the paper's Figure 5(b) point. Rank 0 sends one
// committed vector (rows of elem bytes, pitch apart) from its GPU to rank
// 1's GPU, sends times, barrier-separated; the latency of a send is from
// the sender entering MPI_Send to the receiver returning from MPI_Recv.
type vectorOp struct {
	devBufs
	seed                     int64
	rows, elem, pitch, sends int

	vec *datatype.Datatype
	buf [2]mem.Ptr
	t0  sim.Time
	lat []float64 // µs, one per send
}

func (o *vectorOp) span() int { return o.rows * o.pitch }

func (o *vectorOp) datatypes() (err error) {
	o.vec, err = datatype.Vector(o.rows, o.elem, o.pitch, datatype.Byte)
	if err != nil {
		return err
	}
	return o.vec.Commit()
}

// config sizes device memory the way osu.VectorLatency does, so the op
// reproduces the committed Figure 5(b) number.
func (o *vectorOp) config() cluster.Config {
	return cluster.Config{Nodes: 2, GPUMemBytes: 2*o.span() + 2*o.vec.Size() + (8 << 20)}
}

func (o *vectorOp) prepare(cl *cluster.Cluster) (err error) {
	for i := range o.buf {
		if o.buf[i], err = o.alloc(cl.Nodes[i].Ctx, o.span()); err != nil {
			return err
		}
	}
	o.vec.UnpackBytes(o.buf[0], payload(o.seed, 0, o.vec.Size()), 1)
	return nil
}

func (o *vectorOp) rank(n *cluster.Node) {
	r := n.Rank
	for it := 0; it < o.sends; it++ {
		r.Barrier()
		if r.Rank() == 0 {
			o.t0 = r.Now()
			r.Send(o.buf[0], 1, o.vec, 1, it)
		} else {
			r.Recv(o.buf[1], 1, o.vec, 0, it)
			o.lat = append(o.lat, (r.Now() - o.t0).Micros())
		}
	}
}

func (o *vectorOp) check() error {
	if !samePacked(o.vec, o.buf[0], o.vec, o.buf[1]) {
		return errors.New("vector-4m: received vector differs from the sent one")
	}
	return nil
}

func (o *vectorOp) virtual() map[string]float64 {
	return map[string]float64{"virt_latency_us": summarize(o.lat).Median}
}

// eagerOp is eager-4k: a ping-pong of one 4 KB vector (below the eager
// limit), trips times. Rank 0 sends from a and receives the echo into c;
// rank 1 receives into b and echoes b back.
type eagerOp struct {
	devBufs
	seed                     int64
	rows, elem, pitch, trips int

	vec     *datatype.Datatype
	a, b, c mem.Ptr
	rtt     []float64 // µs, one per round trip
}

func (o *eagerOp) datatypes() (err error) {
	o.vec, err = datatype.Vector(o.rows, o.elem, o.pitch, datatype.Byte)
	if err != nil {
		return err
	}
	return o.vec.Commit()
}

func (o *eagerOp) config() cluster.Config { return cluster.Config{Nodes: 2} }

func (o *eagerOp) prepare(cl *cluster.Cluster) (err error) {
	span := o.rows * o.pitch
	if o.a, err = o.alloc(cl.Nodes[0].Ctx, span); err != nil {
		return err
	}
	if o.c, err = o.alloc(cl.Nodes[0].Ctx, span); err != nil {
		return err
	}
	if o.b, err = o.alloc(cl.Nodes[1].Ctx, span); err != nil {
		return err
	}
	o.vec.UnpackBytes(o.a, payload(o.seed, 0, o.vec.Size()), 1)
	return nil
}

func (o *eagerOp) rank(n *cluster.Node) {
	r := n.Rank
	for it := 0; it < o.trips; it++ {
		if r.Rank() == 0 {
			t0 := r.Now()
			r.Send(o.a, 1, o.vec, 1, it)
			r.Recv(o.c, 1, o.vec, 1, it)
			o.rtt = append(o.rtt, (r.Now() - t0).Micros())
		} else {
			r.Recv(o.b, 1, o.vec, 0, it)
			r.Send(o.b, 1, o.vec, 0, it)
		}
	}
}

func (o *eagerOp) check() error {
	if !samePacked(o.vec, o.a, o.vec, o.b) || !samePacked(o.vec, o.b, o.vec, o.c) {
		return errors.New("eager-4k: ping or pong payload differs from the sent one")
	}
	return nil
}

func (o *eagerOp) virtual() map[string]float64 {
	return map[string]float64{"virt_latency_us": summarize(o.rtt).Median / 2}
}

// haloGrid is the process grid edge of halo-subarray: 2×2×2 ranks, periodic.
const haloGrid = 2

// haloOp is halo-subarray: every rank of a periodic 2×2×2 grid exchanges
// the six boundary planes of its edge³ f64 brick with its neighbours,
// iters times. The three face shapes are one contiguous plane, edge rows
// of one brick row each, and edge² single cells, all as Subarray types.
// Sends read the rank's own brick; each dimension's incoming planes land
// in a receive brick of their own, so no two receives share a byte.
type haloOp struct {
	devBufs
	seed        int64
	edge, iters int

	faces [3][2]*datatype.Datatype // [dim][side]: side 0 is the low plane
	send  []mem.Ptr                // [rank]
	recv  [][3]mem.Ptr             // [rank][dim]
	ends  [][]sim.Time             // [rank][iter]: when the rank's exchange completed
}

func (o *haloOp) ranks() int { return haloGrid * haloGrid * haloGrid }

func (o *haloOp) brick() int { return o.edge * o.edge * o.edge * 8 }

// haloNbr is the rank next to r along dim k, on the low (side 0) or high
// (side 1) side, with row-major grid coordinates and periodic wrap.
func haloNbr(r, k, side int) int {
	c := [3]int{r / (haloGrid * haloGrid), r / haloGrid % haloGrid, r % haloGrid}
	c[k] = (c[k] + 2*side - 1 + haloGrid) % haloGrid
	return (c[0]*haloGrid+c[1])*haloGrid + c[2]
}

func (o *haloOp) datatypes() error {
	e := o.edge
	for k := 0; k < 3; k++ {
		for side := 0; side < 2; side++ {
			sub, start := []int{e, e, e}, []int{0, 0, 0}
			sub[k], start[k] = 1, side*(e-1)
			t, err := datatype.Subarray([]int{e, e, e}, sub, start, datatype.RowMajor, datatype.Float64)
			if err != nil {
				return err
			}
			if err := t.Commit(); err != nil {
				return err
			}
			o.faces[k][side] = t
		}
	}
	return nil
}

func (o *haloOp) config() cluster.Config {
	return cluster.Config{Nodes: o.ranks(), GPUMemBytes: 4*o.brick() + (8 << 20), HostHeapBytes: 4 << 20}
}

func (o *haloOp) prepare(cl *cluster.Cluster) (err error) {
	brick := o.brick()
	o.send = make([]mem.Ptr, o.ranks())
	o.recv = make([][3]mem.Ptr, o.ranks())
	o.ends = make([][]sim.Time, o.ranks())
	for r, n := range cl.Nodes {
		if o.send[r], err = o.alloc(n.Ctx, brick); err != nil {
			return err
		}
		copy(o.send[r].Bytes(brick), payload(o.seed, r, brick))
		for k := range o.recv[r] {
			if o.recv[r][k], err = o.alloc(n.Ctx, brick); err != nil {
				return err
			}
		}
		o.ends[r] = make([]sim.Time, o.iters)
	}
	return nil
}

func (o *haloOp) rank(n *cluster.Node) {
	r, me := n.Rank, n.Rank.Rank()
	reqs := make([]*mpi.Request, 0, 12)
	for it := 0; it < o.iters; it++ {
		reqs = reqs[:0]
		for k := 0; k < 3; k++ {
			for side := 0; side < 2; side++ {
				// The plane a neighbour sends from its side lands on our
				// opposite side; the tag names the sender's side.
				reqs = append(reqs, r.Irecv(o.recv[me][k], 1, o.faces[k][1-side], haloNbr(me, k, 1-side), 2*k+side))
			}
		}
		for k := 0; k < 3; k++ {
			for side := 0; side < 2; side++ {
				reqs = append(reqs, r.Isend(o.send[me], 1, o.faces[k][side], haloNbr(me, k, side), 2*k+side))
			}
		}
		r.Waitall(reqs...)
		o.ends[me][it] = r.Now()
	}
}

func (o *haloOp) check() error {
	for r := range o.send {
		for k := 0; k < 3; k++ {
			for side := 0; side < 2; side++ {
				from := haloNbr(r, k, 1-side)
				if !samePacked(o.faces[k][side], o.send[from], o.faces[k][1-side], o.recv[r][k]) {
					return fmt.Errorf("halo-subarray: rank %d dim %d side %d halo differs from rank %d's plane", r, k, 1-side, from)
				}
			}
		}
	}
	return nil
}

// virtual reports the median exchange time over iterations 2..iters: the
// gap between the last rank finishing one exchange and the last rank
// finishing the next. The first exchange includes start-up and is dropped.
func (o *haloOp) virtual() map[string]float64 {
	last := func(it int) sim.Time {
		var t sim.Time
		for _, e := range o.ends {
			t = max(t, e[it])
		}
		return t
	}
	var iters []float64
	for it := 1; it < o.iters; it++ {
		iters = append(iters, (last(it) - last(it-1)).Micros())
	}
	return map[string]float64{"virt_latency_us": summarize(iters).Median}
}

// loadSeed is the schedule seed of a run's k-th load-poisson op. Every op
// replays its own arrivals, so a run's host medians average over many
// schedules rather than hang on one; op 0 uses the run's seed itself and
// so replays cmd/loadgen's arrivals for that seed.
func loadSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// loadOpRate is load-poisson's operating point, offered MB/s: below the
// knee, where queueing shows in the tail but the backlog stays bounded.
const loadOpRate = 6000

// loadSizes is load-poisson's packed message-size mix, drawn uniformly.
var loadSizes = []int{4 << 10, 32 << 10, 64 << 10, 256 << 10}

// loadOp is one open-loop point of load-poisson: 4 sender→receiver pairs
// replay load.Schedule's Poisson arrivals at an aggregate offered rate
// over a horizon sized for about `arrivals` messages. Every delivery is
// timed from its scheduled arrival (the sojourn, backlog included) and
// checked byte-exact as it lands, because the receive window reuses
// buffers.
type loadOp struct {
	devBufs
	cfg load.Config

	sched   [][]load.Item
	dts     []*datatype.Datatype
	maxSpan int
	src     []mem.Ptr   // [pair] sender buffer
	dst     [][]mem.Ptr // [pair] receiver window buffers
	want    [][][]byte  // [pair][size index] packed payload

	sojourn   []float64 // µs, one per delivery
	late      []float64 // µs, Isend issue time minus scheduled arrival
	delivered int64
	makespan  sim.Time
	bad       int
	checkTime time.Duration
}

func newLoadOp(seed int64, rateMBs float64, arrivals int) *loadOp {
	var sum int
	for _, s := range loadSizes {
		sum += s
	}
	meanBytes := float64(sum) / float64(len(loadSizes))
	// arrivals * meanBytes bytes at rateMBs*1e6 B/s, in ns.
	horizon := sim.Time(float64(arrivals) * meanBytes / rateMBs * 1e3)
	o := &loadOp{cfg: load.Config{
		Seed: seed, Process: load.Poisson, Pairs: 4, OfferedMBs: rateMBs, Horizon: horizon,
		Sizes: loadSizes, ElemBytes: 8, PitchBytes: 32, MaxPosted: 32,
	}}
	o.sched = make([][]load.Item, o.cfg.Pairs)
	for p := range o.sched {
		o.sched[p] = load.Schedule(o.cfg, p)
	}
	return o
}

func (o *loadOp) datatypes() error {
	o.dts = make([]*datatype.Datatype, len(o.cfg.Sizes))
	for i, s := range o.cfg.Sizes {
		rows := s / o.cfg.ElemBytes
		t, err := datatype.Vector(rows, o.cfg.ElemBytes, o.cfg.PitchBytes, datatype.Byte)
		if err != nil {
			return err
		}
		if err := t.Commit(); err != nil {
			return err
		}
		o.dts[i] = t
		o.maxSpan = max(o.maxSpan, rows*o.cfg.PitchBytes)
	}
	return nil
}

// config sizes device memory for the larger of the two roles: a sender
// holds its source buffer and, in the worst case, its whole schedule in
// flight as packed staging buffers; a receiver holds MaxPosted user
// buffers plus a packed staging buffer for each.
func (o *loadOp) config() cluster.Config {
	var maxPair int64
	for _, items := range o.sched {
		maxPair = max(maxPair, load.ScheduledBytes(items))
	}
	maxSize := slices.Max(o.cfg.Sizes)
	sender := o.maxSpan + int(maxPair)
	receiver := o.cfg.MaxPosted * (o.maxSpan + maxSize)
	return cluster.Config{
		Nodes:         2 * o.cfg.Pairs,
		GPUMemBytes:   max(sender, receiver) + (8 << 20),
		HostHeapBytes: 4 << 20,
	}
}

func (o *loadOp) prepare(cl *cluster.Cluster) (err error) {
	o.src = make([]mem.Ptr, o.cfg.Pairs)
	o.dst = make([][]mem.Ptr, o.cfg.Pairs)
	o.want = make([][][]byte, o.cfg.Pairs)
	for p, items := range o.sched {
		if o.src[p], err = o.alloc(cl.Nodes[2*p].Ctx, o.maxSpan); err != nil {
			return err
		}
		copy(o.src[p].Bytes(o.maxSpan), payload(o.cfg.Seed, p, o.maxSpan))
		o.want[p] = make([][]byte, len(o.dts))
		for i, t := range o.dts {
			o.want[p][i] = make([]byte, t.Size())
			t.PackBytes(o.want[p][i], o.src[p], 1)
		}
		o.dst[p] = make([]mem.Ptr, min(o.cfg.MaxPosted, len(items)))
		for i := range o.dst[p] {
			if o.dst[p][i], err = o.alloc(cl.Nodes[2*p+1].Ctx, o.maxSpan); err != nil {
				return err
			}
		}
	}
	return nil
}

func (o *loadOp) rank(n *cluster.Node) {
	pair := n.Rank.Rank() / 2
	if n.Rank.Rank()%2 == 0 {
		o.runSender(n, pair)
	} else {
		o.runReceiver(n, pair)
	}
}

// runSender replays the pair's schedule open-loop: sleep to each
// arrival (immediately if behind), issue the non-blocking send, and wait
// for everything only at the end.
func (o *loadOp) runSender(n *cluster.Node, pair int) {
	r := n.Rank
	items := o.sched[pair]
	reqs := make([]*mpi.Request, len(items))
	for i, it := range items {
		if now := r.Now(); now < it.At {
			r.Proc().Sleep(it.At - now)
		}
		o.late = append(o.late, (r.Now() - it.At).Micros())
		reqs[i] = r.Isend(o.src[pair], 1, o.dts[it.SizeIdx], r.Rank()+1, i)
	}
	r.Waitall(reqs...)
}

// runReceiver keeps a window of MaxPosted receives in rotating buffers:
// receive i reuses receive i-MaxPosted's buffer once that one delivered.
func (o *loadOp) runReceiver(n *cluster.Node, pair int) {
	r := n.Rank
	items, bufs := o.sched[pair], o.dst[pair]
	window := len(bufs)
	reqs := make([]*mpi.Request, len(items))
	for i, it := range items {
		if i >= window {
			r.Wait(reqs[i-window])
		}
		it, buf := it, bufs[i%window]
		q := r.Irecv(buf, 1, o.dts[it.SizeIdx], r.Rank()-1, i)
		q.OnComplete(func() { o.deliver(r.Now(), pair, it, buf) })
		reqs[i] = q
	}
	r.Waitall(reqs[max(0, len(items)-window):]...)
}

// deliver records one delivery and checks its bytes before the window
// reuses the buffer.
func (o *loadOp) deliver(now sim.Time, pair int, it load.Item, buf mem.Ptr) {
	o.sojourn = append(o.sojourn, (now - it.At).Micros())
	o.delivered += int64(it.Bytes)
	o.makespan = max(o.makespan, now)
	t0 := time.Now()
	t := o.dts[it.SizeIdx]
	got := make([]byte, t.Size())
	t.PackBytes(got, buf, 1)
	if !bytes.Equal(got, o.want[pair][it.SizeIdx]) {
		o.bad++
	}
	o.checkTime += time.Since(t0)
}

func (o *loadOp) inRunCheck() time.Duration { return o.checkTime }

func (o *loadOp) check() error {
	scheduled := 0
	for _, items := range o.sched {
		scheduled += len(items)
	}
	if o.bad > 0 || len(o.sojourn) != scheduled {
		return fmt.Errorf("load-poisson: %d of %d scheduled messages delivered, %d corrupted",
			len(o.sojourn), scheduled, o.bad)
	}
	return nil
}

// offeredMBs is the actual offered load: scheduled bytes over the horizon.
func (o *loadOp) offeredMBs() float64 {
	var b int64
	for _, items := range o.sched {
		b += load.ScheduledBytes(items)
	}
	return float64(b) / o.cfg.Horizon.Seconds() / 1e6
}

func (o *loadOp) goodputMBs() float64 {
	return float64(o.delivered) / o.makespan.Seconds() / 1e6
}

// virtual reports the sojourn median and p99, nearest-rank over the op's
// deliveries, and the generator's mean lateness.
func (o *loadOp) virtual() map[string]float64 {
	p50, _ := resolved(o.sojourn, 50)
	p99, _ := resolved(o.sojourn, 99)
	return map[string]float64{
		"virt_latency_us":  p50,
		"load.p99_us":      p99,
		"load.gen_late_us": mean(o.late),
	}
}
