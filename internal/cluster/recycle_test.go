package cluster

import (
	"runtime"
	"sync"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// opResult is what one benchmark-style op leaves behind: the packed
// received bytes, the receive's virtual completion time, the Chrome
// trace, and the Go heap bytes its device mallocs cost.
type opResult struct {
	recv     []byte
	done     sim.Time
	trace    string
	mallocMB float64
}

// vectorOp builds a traced two-node cluster, mallocs a 4 MiB-span device
// vector on each node (256 KiB packed), sends it through the rendezvous
// pipeline, and frees everything, as each mv2bench op does on a fresh
// cluster.
func vectorOp() (opResult, error) {
	var res opResult
	vec, err := datatype.Vector(16<<10, 16, 256, datatype.Byte)
	if err != nil {
		return res, err
	}
	if err := vec.Commit(); err != nil {
		return res, err
	}
	c := obs.NewChromeTracer()
	cl := New(Config{Nodes: 2, Tracers: []obs.Tracer{c}})
	span := vec.Span(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bufs := [2]mem.Ptr{cl.Nodes[0].Ctx.MustMalloc(span), cl.Nodes[1].Ctx.MustMalloc(span)}
	runtime.ReadMemStats(&after)
	res.mallocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	mem.Fill(bufs[0], span, func(i int) byte { return byte(i*13 + 5) })
	err = cl.Run(func(n *Node) {
		r := n.Rank
		if r.Rank() == 0 {
			r.Send(bufs[0], 1, vec, 1, 0)
			return
		}
		r.Recv(bufs[1], 1, vec, 0, 0)
		res.done = r.Now()
	})
	if err != nil {
		return res, err
	}
	sent := make([]byte, vec.Size())
	res.recv = make([]byte, vec.Size())
	vec.PackBytes(sent, bufs[0], 1)
	vec.PackBytes(res.recv, bufs[1], 1)
	if string(sent) != string(res.recv) {
		res.recv = nil // a corrupt delivery matches no reference
	}
	for i, p := range bufs {
		if err := cl.Nodes[i].Ctx.Free(p); err != nil {
			return res, err
		}
	}
	res.trace = c.JSON()
	return res, cl.CheckDeviceLeaks()
}

// sameOp reports how b differs from the reference a, or "".
func sameOp(a, b opResult) string {
	switch {
	case b.recv == nil || string(a.recv) != string(b.recv):
		return "received bytes differ"
	case a.done != b.done:
		return "virtual completion time differs"
	case a.trace != b.trace:
		return "Chrome trace differs"
	}
	return ""
}

// TestSecondClusterReusesFreedMemory: a cluster built after an identical
// one maps its device buffers from the bytes the first freed, so they
// cost the Go heap almost nothing, and it observes exactly what the first
// did: the same received bytes, virtual time and trace.
func TestSecondClusterReusesFreedMemory(t *testing.T) {
	first, err := vectorOp()
	if err != nil {
		t.Fatal(err)
	}
	if first.recv == nil {
		t.Fatal("first cluster delivered corrupt bytes")
	}
	second, err := vectorOp()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("device mallocs: %.2f MiB of Go heap, then %.2f MiB", first.mallocMB, second.mallocMB)
	if second.mallocMB >= 1 {
		t.Errorf("second cluster's device mallocs took %.2f MiB of new Go heap, want under 1 MiB", second.mallocMB)
	}
	if d := sameOp(first, second); d != "" {
		t.Errorf("second cluster: %s", d)
	}
}

// TestConcurrentClusters: two clusters run at once on two goroutines and
// share only the recycler. Run under -race; each must get the results of
// a serial run.
func TestConcurrentClusters(t *testing.T) {
	ref, err := vectorOp()
	if err != nil {
		t.Fatal(err)
	}
	var got [2]opResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = vectorOp()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Errorf("cluster %d: %v", i, errs[i])
		} else if d := sameOp(ref, got[i]); d != "" {
			t.Errorf("cluster %d: %s from the serial run", i, d)
		}
	}
}
