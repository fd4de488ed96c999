package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"strings"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/gpu"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// devFixture runs fn on a 2-node GPU cluster.
func runPair(t *testing.T, cfg cluster.Config, fn func(n *cluster.Node)) *cluster.Cluster {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	cl := cluster.New(cfg)
	if err := cl.Run(fn); err != nil {
		t.Fatalf("simulation did not drain: %v", err)
	}
	return cl
}

func fillDev(p mem.Ptr, n int, seed byte) {
	mem.Fill(p, n, func(i int) byte { return byte(i)*7 + seed })
}

// checkVector verifies every touched segment of a typed buffer against the
// sender's fill pattern.
func checkTyped(t *testing.T, dt *datatype.Datatype, count int, buf mem.Ptr, seed byte, what string) {
	t.Helper()
	for _, s := range dt.SegmentsOf(count) {
		b := buf.Add(s.Off).Bytes(s.Len)
		for i := range b {
			if b[i] != byte(s.Off+i)*7+seed {
				t.Fatalf("%s: segment %+v byte %d = %d, want %d", what, s, i, b[i], byte(s.Off+i)*7+seed)
			}
		}
	}
}

func TestDeviceVectorEager(t *testing.T) {
	// Small vector: travels on the eager path with GPU staging both ways.
	v, _ := datatype.Vector(256, 4, 16, datatype.Byte) // 1 KB packed
	v.MustCommit()
	runPair(t, cluster.Config{}, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		switch r.Rank() {
		case 0:
			fillDev(buf, v.Span(1), 5)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			st := r.Recv(buf, 1, v, 0, 0)
			if st.Bytes != v.Size() {
				t.Errorf("bytes = %d, want %d", st.Bytes, v.Size())
			}
			checkTyped(t, v, 1, buf, 5, "eager device vector")
		}
	})
}

func TestDeviceVectorRendezvousPipeline(t *testing.T) {
	// 4 MB vector of 4-byte elements: the paper's headline case. Exercises
	// the full five-stage chunked pipeline.
	v, _ := datatype.Vector(1<<20, 4, 16, datatype.Byte) // 4 MB packed
	v.MustCommit()
	cl := runPair(t, cluster.Config{GPUMemBytes: 96 << 20}, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		switch r.Rank() {
		case 0:
			fillDev(buf, v.Span(1), 3)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			r.Recv(buf, 1, v, 0, 0)
			checkTyped(t, v, 1, buf, 3, "rendezvous device vector")
		}
	})
	// The pipeline must have used both devices' engines and returned every
	// vbuf in both pools.
	for i, n := range cl.Nodes {
		if n.Pool.Free() != n.Pool.Count() {
			t.Errorf("node %d: %d send vbufs leaked", i, n.Pool.Count()-n.Pool.Free())
		}
		if n.RecvPool.Free() != n.RecvPool.Count() {
			t.Errorf("node %d: %d recv vbufs leaked", i, n.RecvPool.Count()-n.RecvPool.Free())
		}
		if n.Dev.LiveAllocs() != 1 { // only the user buffer remains
			t.Errorf("node %d: %d device allocations leaked", i, n.Dev.LiveAllocs()-1)
		}
	}
}

func TestDeviceContiguousTransferSkipsPacking(t *testing.T) {
	const n = 1 << 20
	cl := runPair(t, cluster.Config{GPUMemBytes: 16 << 20}, func(nd *cluster.Node) {
		r := nd.Rank
		buf := nd.Ctx.MustMalloc(n)
		switch r.Rank() {
		case 0:
			fillDev(buf, n, 9)
			r.Send(buf, n, datatype.Byte, 1, 0)
		case 1:
			r.Recv(buf, n, datatype.Byte, 0, 0)
			b := buf.Bytes(n)
			for i := range b {
				if b[i] != byte(i)*7+9 {
					t.Fatalf("byte %d corrupted", i)
				}
			}
		}
	})
	// Contiguous transfers use no D2D copies (no pack/unpack stage).
	for i, nd := range cl.Nodes {
		st := nd.Dev.Stats()
		if st.Copies[2] != 0 { // gpu.D2D
			t.Errorf("node %d: %d D2D copies on a contiguous transfer", i, st.Copies[2])
		}
	}
}

func TestDeviceToHostMixedTransfer(t *testing.T) {
	// Sender in device memory, receiver in host memory: the transport
	// drives the send side; the host path receives.
	v, _ := datatype.Vector(65536, 4, 8, datatype.Byte) // 256 KB packed
	v.MustCommit()
	runPair(t, cluster.Config{GPUMemBytes: 16 << 20}, func(n *cluster.Node) {
		r := n.Rank
		switch r.Rank() {
		case 0:
			buf := n.Ctx.MustMalloc(v.Span(1))
			fillDev(buf, v.Span(1), 1)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			buf := r.AllocHost(v.Span(1))
			r.Recv(buf, 1, v, 0, 0)
			checkTyped(t, v, 1, buf, 1, "device->host")
		}
	})
}

func TestHostToDeviceMixedTransfer(t *testing.T) {
	v, _ := datatype.Vector(65536, 4, 8, datatype.Byte)
	v.MustCommit()
	runPair(t, cluster.Config{GPUMemBytes: 16 << 20}, func(n *cluster.Node) {
		r := n.Rank
		switch r.Rank() {
		case 0:
			buf := r.AllocHost(v.Span(1))
			fillDev(buf, v.Span(1), 2)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			buf := n.Ctx.MustMalloc(v.Span(1))
			r.Recv(buf, 1, v, 0, 0)
			checkTyped(t, v, 1, buf, 2, "host->device")
		}
	})
}

func TestIrregularDatatypeUsesPackKernel(t *testing.T) {
	// An indexed type with irregular gaps cannot use the 2D copy engine;
	// the transport falls back to pack/unpack kernels. Data must still be
	// intact and the device must have executed kernels.
	ix, _ := datatype.Indexed(
		[]int{3, 1, 5, 2, 8},
		[]int{0, 7, 11, 40, 50},
		datatype.Int32,
	)
	ix.MustCommit()
	const count = 2048 // ~152 KB packed: rendezvous
	cl := runPair(t, cluster.Config{GPUMemBytes: 32 << 20}, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(ix.Span(count))
		switch r.Rank() {
		case 0:
			fillDev(buf, ix.Span(count), 8)
			r.Send(buf, count, ix, 1, 0)
		case 1:
			r.Recv(buf, count, ix, 0, 0)
			checkTyped(t, ix, count, buf, 8, "irregular type")
		}
	})
	if k := cl.Nodes[0].Dev.Stats().Kernels; k == 0 {
		t.Error("sender executed no pack kernels for an irregular type")
	}
	if k := cl.Nodes[1].Dev.Stats().Kernels; k == 0 {
		t.Error("receiver executed no unpack kernels for an irregular type")
	}
}

func TestDeviceSelfSend(t *testing.T) {
	v, _ := datatype.Vector(4096, 4, 8, datatype.Byte)
	v.MustCommit()
	runPair(t, cluster.Config{Nodes: 1, GPUMemBytes: 16 << 20}, func(n *cluster.Node) {
		r := n.Rank
		tx := n.Ctx.MustMalloc(v.Span(1))
		rx := n.Ctx.MustMalloc(v.Span(1))
		fillDev(tx, v.Span(1), 4)
		q := r.Irecv(rx, 1, v, 0, 0)
		r.Send(tx, 1, v, 0, 0)
		r.Wait(q)
		checkTyped(t, v, 1, rx, 4, "device self-send")
	})
}

func TestSmallVbufPoolStillCorrect(t *testing.T) {
	// With only 3 vbufs per node the pipeline must batch CTS announcements
	// and recycle staging buffers, but data integrity holds.
	v, _ := datatype.Vector(1<<18, 4, 8, datatype.Byte) // 1 MB packed, 16 chunks
	v.MustCommit()
	cl := runPair(t, cluster.Config{GPUMemBytes: 32 << 20, VbufCount: 3}, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		switch r.Rank() {
		case 0:
			fillDev(buf, v.Span(1), 6)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			r.Recv(buf, 1, v, 0, 0)
			checkTyped(t, v, 1, buf, 6, "small pool")
		}
	})
	// The receiver must have drained its pool, proving CTS batching was
	// exercised.
	if mf := cl.Nodes[1].RecvPool.MinFree(); mf > 0 {
		t.Errorf("small recv pool never stressed (minFree=%d); test is not exercising batching", mf)
	}
}

func TestBidirectionalDeviceExchange(t *testing.T) {
	// Simultaneous large sends in both directions (the stencil pattern).
	v, _ := datatype.Vector(1<<17, 4, 8, datatype.Byte) // 512 KB packed
	v.MustCommit()
	runPair(t, cluster.Config{GPUMemBytes: 32 << 20}, func(n *cluster.Node) {
		r := n.Rank
		peer := 1 - r.Rank()
		tx := n.Ctx.MustMalloc(v.Span(1))
		rx := n.Ctx.MustMalloc(v.Span(1))
		fillDev(tx, v.Span(1), byte(10+r.Rank()))
		rq := r.Irecv(rx, 1, v, peer, 0)
		sq := r.Isend(tx, 1, v, peer, 0)
		r.Waitall(rq, sq)
		checkTyped(t, v, 1, rx, byte(10+peer), "bidirectional")
	})
}

func TestBidirectionalUnderPoolPressure(t *testing.T) {
	// Both directions large with a tiny pool: the leave-one-vbuf rule must
	// prevent the receiver sides from starving the sender sides.
	v, _ := datatype.Vector(1<<17, 4, 8, datatype.Byte)
	v.MustCommit()
	runPair(t, cluster.Config{GPUMemBytes: 32 << 20, VbufCount: 2}, func(n *cluster.Node) {
		r := n.Rank
		peer := 1 - r.Rank()
		tx := n.Ctx.MustMalloc(v.Span(1))
		rx := n.Ctx.MustMalloc(v.Span(1))
		fillDev(tx, v.Span(1), byte(20+r.Rank()))
		rq := r.Irecv(rx, 1, v, peer, 0)
		sq := r.Isend(tx, 1, v, peer, 0)
		r.Waitall(rq, sq)
		checkTyped(t, v, 1, rx, byte(20+peer), "pool pressure")
	})
}

// The paper's performance claims as executable checks.

// latencyFor measures one-way latency of a vector transfer using design d.
// Pack modes are pinned to the copy engine: the §IV-B assertions below
// compare against the memcpy2D stage costs.
func pipelinedLatency(t *testing.T, rows int) sim.Time {
	t.Helper()
	v, _ := datatype.Vector(rows, 4, 16, datatype.Byte)
	v.MustCommit()
	var elapsed sim.Time
	cfg := cluster.Config{GPUMemBytes: 128 << 20}
	cfg.Core.PackMode = core.PackModeMemcpy2D
	cfg.Core.UnpackMode = core.PackModeMemcpy2D
	runPair(t, cfg, func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		switch r.Rank() {
		case 0:
			t0 := r.Now()
			r.Send(buf, 1, v, 1, 0)
			r.Recv(buf, 0, datatype.Byte, 1, 1) // ack
			elapsed = r.Now() - t0
		case 1:
			r.Recv(buf, 1, v, 0, 0)
			r.Send(buf, 0, datatype.Byte, 0, 1)
		}
	})
	return elapsed
}

func TestPipelineOverlapBeatsSerialStages(t *testing.T) {
	// For a 4 MB vector, the pipelined transfer must take far less than
	// the sum of its serial stage costs. Section IV-B models the pipelined
	// latency as (n+2)*T_pack(N/n) ≈ T_pack(N) for large n, so the
	// five-stage serial sum (≈ pack + D2H + wire + H2D + unpack) should be
	// beaten decisively.
	const rows = 1 << 20 // 4 MB of 4-byte elements
	got := pipelinedLatency(t, rows)

	m := gpu.DefaultModel()
	packShape := gpu.CopyShape{Width: 4, Height: rows, DPitch: 4, SPitch: 16}
	serial := m.CopyCost(gpu.D2D, packShape) + // pack
		m.CopyCost(gpu.D2H, gpu.Shape1D(4*rows)) + // stage out
		sim.DurationOf(4*rows, 3.2e9) + // wire
		m.CopyCost(gpu.H2D, gpu.Shape1D(4*rows)) + // stage in
		m.CopyCost(gpu.D2D, packShape) // unpack
	if got >= serial*7/10 {
		t.Errorf("pipelined 4MB latency %v not < 70%% of serial stage sum %v", got, serial)
	}
	// And it must not be faster than the slowest single stage (sanity).
	if got < m.CopyCost(gpu.D2D, packShape) {
		t.Errorf("pipelined latency %v below the pack stage alone — model inconsistency", got)
	}
}

// Property: random vector geometries and sizes transfer intact between
// device buffers across the eager/rendezvous boundary.
func TestPropDeviceVectorIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocklen := 1 + rng.Intn(8)
		stride := blocklen + 1 + rng.Intn(8)
		rows := 1 + rng.Intn(20000)
		v, err := datatype.Vector(rows, blocklen, stride, datatype.Int32)
		if err != nil {
			return false
		}
		v.MustCommit()
		span := v.Span(1)
		ok := true
		cl := cluster.New(cluster.Config{GPUMemBytes: 2*span + (16 << 20)})
		err = cl.Run(func(n *cluster.Node) {
			r := n.Rank
			buf := n.Ctx.MustMalloc(span)
			switch r.Rank() {
			case 0:
				fillDev(buf, span, byte(seed))
				r.Send(buf, 1, v, 1, 0)
			case 1:
				r.Recv(buf, 1, v, 0, 0)
				for _, s := range v.SegmentsOf(1) {
					b := buf.Add(s.Off).Bytes(s.Len)
					for i := range b {
						if b[i] != byte(s.Off+i)*7+byte(seed) {
							ok = false
							return
						}
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestManyMessagesStress(t *testing.T) {
	// A burst of mixed-size device messages with distinct tags all arrive.
	sizes := []int{64, 4096, 70000, 300000}
	v := map[int]*datatype.Datatype{}
	for i, n := range sizes {
		dt, _ := datatype.Vector(n/4, 4, 8, datatype.Byte)
		dt.MustCommit()
		v[i] = dt
	}
	runPair(t, cluster.Config{GPUMemBytes: 64 << 20}, func(n *cluster.Node) {
		r := n.Rank
		switch r.Rank() {
		case 0:
			for i, dt := range v {
				buf := n.Ctx.MustMalloc(dt.Span(1))
				fillDev(buf, dt.Span(1), byte(i))
				r.Send(buf, 1, dt, 1, i)
			}
		case 1:
			var reqs []*mpi.Request
			bufs := map[int]mem.Ptr{}
			for i, dt := range v {
				bufs[i] = n.Ctx.MustMalloc(dt.Span(1))
				reqs = append(reqs, r.Irecv(bufs[i], 1, dt, 0, i))
			}
			r.Waitall(reqs...)
			for i, dt := range v {
				checkTyped(t, dt, 1, bufs[i], byte(i), fmt.Sprintf("msg %d", i))
			}
		}
	})
}

// The HostStagedPack ablation: same protocol, no GPU offload. Data must
// stay correct, and the offloaded default must be decisively faster — the
// paper's section IV-A argument at library level.
func TestHostStagedPackAblation(t *testing.T) {
	v, _ := datatype.Vector(1<<18, 4, 16, datatype.Byte) // 1 MB packed
	v.MustCommit()
	runOne := func(hostStaged bool) sim.Time {
		cfg := cluster.Config{GPUMemBytes: 64 << 20}
		cfg.Core.HostStagedPack = hostStaged
		cl := cluster.New(cfg)
		var elapsed sim.Time
		err := cl.Run(func(n *cluster.Node) {
			r := n.Rank
			buf := n.Ctx.MustMalloc(v.Span(1))
			switch r.Rank() {
			case 0:
				fillDev(buf, v.Span(1), 9)
				t0 := r.Now()
				r.Send(buf, 1, v, 1, 0)
				r.Recv(buf, 0, datatype.Byte, 1, 1)
				elapsed = r.Now() - t0
			case 1:
				r.Recv(buf, 1, v, 0, 0)
				checkTyped(t, v, 1, buf, 9, "host-staged ablation")
				r.Send(buf, 0, datatype.Byte, 0, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	offloaded := runOne(false)
	staged := runOne(true)
	if staged < 4*offloaded {
		t.Errorf("host-staged %v not ≫ offloaded %v; ablation shows no offload benefit", staged, offloaded)
	}
}

// The pipeline trace is the executable Figure 3: attached like any other
// tracer, it must show all five stages per chunk and true overlap
// (packing still running after the first chunk is already on the wire).
func TestPipelineTraceShowsOverlap(t *testing.T) {
	v, _ := datatype.Vector(1<<19, 4, 16, datatype.Byte) // 2 MB, 32 chunks
	v.MustCommit()
	trace := &core.PipelineTrace{}
	cl := cluster.New(cluster.Config{GPUMemBytes: 64 << 20, Tracers: []obs.Tracer{trace}})
	err := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		switch r.Rank() {
		case 0:
			fillDev(buf, v.Span(1), 2)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			r.Recv(buf, 1, v, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"pack", "d2h", "rdma", "h2d", "unpack"} {
		if len(trace.Completions(stage)) == 0 {
			t.Errorf("stage %q missing from trace", stage)
		}
	}
	if got := len(trace.Completions("rdma")); got != 32 {
		t.Errorf("rdma completions = %d, want 32 chunks", got)
	}
	if !trace.Overlapped() {
		t.Error("trace shows no overlap between packing and RDMA")
	}
	// Per chunk, stages complete in data-flow order.
	d2h, rdma, h2d := trace.Completions("d2h"), trace.Completions("rdma"), trace.Completions("h2d")
	for c, at := range rdma {
		if at < d2h[c] {
			t.Errorf("chunk %d: rdma (%v) before d2h (%v)", c, at, d2h[c])
		}
		if h2d[c] < at {
			t.Errorf("chunk %d: h2d (%v) before rdma local completion is plausible but h2d before rdma=%v means data raced", c, h2d[c], at)
		}
	}
	if !strings.Contains(trace.String(), "unpack") {
		t.Error("trace rendering")
	}
}

// GPUDirect mode: identical data, fewer stages. It must beat the staged
// default for large vectors (no PCIe staging hops) while the default stays
// correct on a fabric that forbids device registration.
func TestGPUDirectMode(t *testing.T) {
	v, _ := datatype.Vector(1<<19, 4, 16, datatype.Byte) // 2 MB packed
	v.MustCommit()
	runOne := func(gdr bool) sim.Time {
		cfg := cluster.Config{GPUMemBytes: 64 << 20, GPUDirect: gdr}
		cl := cluster.New(cfg)
		var elapsed sim.Time
		err := cl.Run(func(n *cluster.Node) {
			r := n.Rank
			buf := n.Ctx.MustMalloc(v.Span(1))
			switch r.Rank() {
			case 0:
				fillDev(buf, v.Span(1), 11)
				t0 := r.Now()
				r.Send(buf, 1, v, 1, 0)
				r.Recv(buf, 0, datatype.Byte, 1, 1)
				elapsed = r.Now() - t0
			case 1:
				r.Recv(buf, 1, v, 0, 0)
				checkTyped(t, v, 1, buf, 11, "gpudirect")
				r.Send(buf, 0, datatype.Byte, 0, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	staged := runOne(false)
	gdr := runOne(true)
	if gdr >= staged {
		t.Errorf("GPUDirect %v not faster than staged %v", gdr, staged)
	}
}

// GPUDirect with a contiguous buffer is fully zero-copy: no device-side
// pack, no staging — only the wire. Latency approaches the raw RDMA time.
func TestGPUDirectContiguousZeroCopy(t *testing.T) {
	const n = 1 << 20
	cfg := cluster.Config{GPUMemBytes: 32 << 20, GPUDirect: true}
	cl := cluster.New(cfg)
	var elapsed sim.Time
	err := cl.Run(func(nd *cluster.Node) {
		r := nd.Rank
		buf := nd.Ctx.MustMalloc(n)
		switch r.Rank() {
		case 0:
			fillDev(buf, n, 3)
			t0 := r.Now()
			r.Send(buf, n, datatype.Byte, 1, 0)
			r.Recv(buf, 0, datatype.Byte, 1, 1)
			elapsed = r.Now() - t0
		case 1:
			r.Recv(buf, n, datatype.Byte, 0, 0)
			b := buf.Bytes(n)
			for i := range b {
				if b[i] != byte(i)*7+3 {
					t.Fatalf("byte %d corrupted", i)
				}
			}
			r.Send(buf, 0, datatype.Byte, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := sim.DurationOf(n, 3.2e9)
	if elapsed > wire*3/2 {
		t.Errorf("zero-copy GDR latency %v exceeds 1.5x wire time %v", elapsed, wire)
	}
	// No copies at all should have hit the devices' PCIe engines.
	for i, nd := range cl.Nodes {
		st := nd.Dev.Stats()
		if st.Bytes[1] != 0 || st.Bytes[0] != 0 { // gpu.D2H, gpu.H2D
			t.Errorf("node %d: PCIe staging traffic in zero-copy mode: %+v", i, st.Bytes)
		}
	}
}

// A host sender running the get protocol can still deliver into a device
// receiver: the receiver pulls into staging and reuses the GPU delivery
// path.
func TestGetProtocolIntoDeviceBuffer(t *testing.T) {
	v, _ := datatype.Vector(32768, 4, 8, datatype.Byte) // 128 KB packed
	v.MustCommit()
	cfg := cluster.Config{GPUMemBytes: 16 << 20}
	cfg.MPI.Rendezvous = mpi.RendezvousGet
	cl := cluster.New(cfg)
	err := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		switch r.Rank() {
		case 0:
			buf := r.AllocHost(v.Span(1))
			fillDev(buf, v.Span(1), 6)
			r.Send(buf, 1, v, 1, 0)
		case 1:
			buf := n.Ctx.MustMalloc(v.Span(1))
			r.Recv(buf, 1, v, 0, 0)
			checkTyped(t, v, 1, buf, 6, "get into device")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeviceEagerBuffersNotAliased is the device-buffer form of the
// eager aliasing check: two same-size eager vectors are in flight at once,
// one of them arriving unexpected, and a third passes through the
// recycler while the unexpected copy waits. The sender rewrites its
// buffers as soon as each send completes; all three arrive byte-exact,
// and the recycler's counters show buffers were reused during the run.
func TestDeviceEagerBuffersNotAliased(t *testing.T) {
	v, _ := datatype.Vector(512, 4, 16, datatype.Byte) // 2 KB packed
	v.MustCommit()
	before := mem.Recycled()
	cl := runPair(t, cluster.Config{}, func(n *cluster.Node) {
		r := n.Rank
		var bufs [4]mem.Ptr
		for i := 1; i <= 3; i++ {
			bufs[i] = n.Ctx.MustMalloc(v.Span(1))
		}
		switch r.Rank() {
		case 0:
			fillDev(bufs[2], v.Span(1), 2)
			fillDev(bufs[1], v.Span(1), 1)
			q2 := r.Isend(bufs[2], 1, v, 1, 2)
			q1 := r.Isend(bufs[1], 1, v, 1, 1)
			r.Waitall(q1, q2)
			fillDev(bufs[1], v.Span(1), 9)
			fillDev(bufs[2], v.Span(1), 9)
			fillDev(bufs[3], v.Span(1), 3)
			r.Send(bufs[3], 1, v, 1, 3)
			fillDev(bufs[3], v.Span(1), 9)
		case 1:
			r.Recv(bufs[1], 1, v, 0, 1)
			r.Recv(bufs[3], 1, v, 0, 3)
			r.Proc().Sleep(sim.Millisecond)
			r.Recv(bufs[2], 1, v, 0, 2) // long since arrived
			for i := 1; i <= 3; i++ {
				checkTyped(t, v, 1, bufs[i], byte(i), fmt.Sprintf("message %d", i))
			}
		}
	})
	if st := cl.Nodes[1].Rank.Stats(); st.Unexpected == 0 {
		t.Error("no message took the unexpected path")
	}
	if mem.Recycled().Reused() == before.Reused() {
		t.Error("no buffer was reused during the run")
	}
}
