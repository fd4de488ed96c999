package cluster

import (
	"strings"
	"testing"

	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
)

// tracedVectorSend runs one two-rank non-contiguous device send large
// enough to engage the full five-stage rendezvous pipeline, with the given
// tracers attached, and returns the cluster.
func tracedVectorSend(t *testing.T, tracers ...obs.Tracer) *Cluster {
	t.Helper()
	cl := New(Config{Nodes: 2, GPUMemBytes: 8 << 20, Tracers: tracers})
	v, _ := datatype.Vector(16384, 16, 32, datatype.Byte)
	v.MustCommit()
	err := cl.Run(func(n *Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(v.Span(1))
		defer func() {
			if err := n.Ctx.Free(buf); err != nil {
				t.Error(err)
			}
		}()
		if r.Rank() == 0 {
			mem.Fill(buf, v.Span(1), func(i int) byte { return byte(i) })
			r.Send(buf, 1, v, 1, 0)
		} else {
			r.Recv(buf, 1, v, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestTraceDeterminism pins the byte-for-byte reproducibility guarantee:
// two identical runs must serialize to identical Chrome JSON.
func TestTraceDeterminism(t *testing.T) {
	run := func() string {
		c := obs.NewChromeTracer()
		tracedVectorSend(t, c)
		return c.JSON()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two identical runs produced different trace bytes")
	}
}

// TestTraceCoversAllLayers checks one traced run surfaces every
// instrumented layer: the five pipeline-stage tracks, both HCA link
// tracks, MPI rank tracks, and the vbuf pool occupancy counters.
func TestTraceCoversAllLayers(t *testing.T) {
	c := obs.NewChromeTracer()
	busy := obs.NewBusyTimeTracer()
	stats := obs.NewStatsTracer()
	cl := tracedVectorSend(t, c, busy, stats)
	if cl.Obs == nil {
		t.Fatal("cluster built no hub despite tracers")
	}

	tracks := map[string]bool{}
	for _, w := range c.Tracks() {
		tracks[w] = true
	}
	for _, want := range []string{
		"rank0.pack", "rank0.d2h", "rank0.rdma", "rank1.h2d", "rank1.unpack",
		"hca0.tx", "hca1.rx", "rank0.mpi", "rank1.mpi",
		"gpu0.d2hEngine", "gpu1.h2dEngine", "node0.txvbufs", "node1.rxvbufs",
	} {
		if !tracks[want] {
			t.Errorf("missing track %q (have %v)", want, c.Tracks())
		}
	}
	out := c.JSON()
	for _, want := range []string{"node0.txvbufs.free", "hca0.bytesTx", "hca1.bytesRx"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing counter %q in trace", want)
		}
	}

	// The pipeline keeps its resources genuinely busy.
	for _, where := range []string{"gpu0.d2hEngine", "hca0.tx", "rank0.d2h"} {
		if busy.Busy(where) <= 0 {
			t.Errorf("%s shows no busy time", where)
		}
	}
	from, to := busy.Window()
	if u := busy.Utilization("hca0.tx", from, to); u <= 0 || u > 1 {
		t.Errorf("hca0.tx utilization = %v", u)
	}

	// Stage tasks parent to the MPI request spans.
	for _, kind := range []string{obs.KindPack, obs.KindD2H, obs.KindRDMA, obs.KindH2D, obs.KindUnpack, obs.KindSendRndv, obs.KindRecv, obs.KindVbuf} {
		if stats.Count(kind) == 0 {
			t.Errorf("no %q tasks recorded", kind)
		}
	}
	// Stages that move whole chunks agree on the chunk count. (KindRDMA
	// is excluded: the ib layer reuses it for its per-link tasks.)
	if got, want := stats.Count(obs.KindPack), stats.Count(obs.KindD2H); got != want {
		t.Errorf("pack tasks = %d, d2h tasks = %d; want equal chunk counts", got, want)
	}
}

// TestPipelineTraceViaTracers checks the PipelineTrace adapter records every
// pipeline stage when attached through Config.Tracers.
func TestPipelineTraceViaTracers(t *testing.T) {
	pt := &core.PipelineTrace{}
	tracedVectorSend(t, pt)
	if len(pt.Events) == 0 {
		t.Fatal("adapter recorded no stage events")
	}
	stages := map[string]bool{}
	for _, ev := range pt.Events {
		stages[ev.Stage] = true
	}
	for _, s := range []string{"pack", "d2h", "rdma", "h2d", "unpack"} {
		if !stages[s] {
			t.Errorf("missing stage %q", s)
		}
	}
}
