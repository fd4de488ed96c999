package main

import (
	"strings"

	"mv2sim/internal/cluster"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/sim"
)

// trackClass names the layer a resource track belongs to: "core.<stage>"
// for the transport's per-rank stage tracks, "gpu.kernel", "gpu.copy" and
// "ib.tx" for the engines and links the utilization metrics cover, "" for
// everything else. Rail suffixes are stripped first.
func trackClass(where string) string {
	base, _, _ := obs.SplitRail(where)
	owner, res, ok := strings.Cut(base, ".")
	switch {
	case !ok:
		return ""
	case strings.HasPrefix(owner, "rank"):
		for _, st := range coreStages {
			if res == st {
				return "core." + st
			}
		}
	case strings.HasPrefix(owner, "gpu"):
		switch res {
		case "kernelEngine":
			return "gpu.kernel"
		case "h2dEngine", "d2hEngine", "d2dEngine":
			return "gpu.copy"
		}
	case strings.HasPrefix(owner, "hca") && res == "tx":
		return "ib.tx"
	}
	return ""
}

// traceLayers reads the virtual-clock layer metrics of one traced op:
// busy time and task counts per pipeline stage, engine and link
// utilization over the traced window, wire writes, staging-pool waits and
// protocol counts.
func traceLayers(cl *cluster.Cluster, st *obs.StatsTracer, bt *obs.BusyTimeTracer, col *critpath.Collector) map[string]float64 {
	m := map[string]float64{}
	from, to := bt.Window()
	win := float64(to - from)

	// Utilization averages over the resources a cluster has, busy or not;
	// a rail-striped resource counts once, its rails averaged.
	nodes := float64(len(cl.Nodes))
	resources := map[string]float64{"gpu.kernel": nodes, "gpu.copy": 3 * nodes, "ib.tx": nodes}
	busy := map[string]float64{}
	for _, g := range obs.GroupRails(bt.Wheres()) {
		class := trackClass(g.Base)
		for _, tr := range g.Tracks {
			busy[class] += float64(bt.Busy(tr)) / float64(len(g.Tracks))
		}
	}
	for class, n := range resources {
		if win > 0 {
			m[class+".util"] = busy[class] / (win * n)
		}
	}
	m["gpu.kernel.busy_us"] = sim.Time(busy["gpu.kernel"]).Micros()

	for _, where := range bt.Wheres() {
		if c := trackClass(where); strings.HasPrefix(c, "core.") {
			m[c+".busy_us"] += bt.Busy(where).Micros()
		}
	}
	for _, where := range st.Wheres() {
		if c := trackClass(where); strings.HasPrefix(c, "core.") {
			m[c+".count"] += float64(st.WhereCount(where))
		}
	}
	var wireBytes int
	for _, t := range col.Tasks() {
		if t.Kind == obs.KindRDMA && trackClass(t.Where) == "ib.tx" {
			m["ib.rdma.count"]++
			wireBytes += t.Bytes
		}
	}
	m["ib.rdma.mb"] = float64(wireBytes) / 1e6
	m["ib.nic.count"] = float64(st.Count(obs.KindNicGather) + st.Count(obs.KindNicScatter))
	m["hostmem.vbuf_wait.count"] = float64(st.Count(obs.KindVbufWait))
	m["hostmem.vbuf_wait_us"] = st.Total(obs.KindVbufWait).Micros()
	for _, n := range cl.Nodes {
		for _, p := range []interface {
			Waits() uint64
			MaxHeld() int
		}{n.Pool, n.RecvPool} {
			m["hostmem.pool_waits"] += float64(p.Waits())
			m["hostmem.max_held"] = max(m["hostmem.max_held"], float64(p.MaxHeld()))
		}
	}
	m["mpi.eager.count"] = float64(st.Count(obs.KindSendEager))
	m["mpi.rndv.count"] = float64(st.Count(obs.KindSendRndv))
	return m
}

// critpathBuckets sums each critical-path bucket over every transfer of
// a traced op, in µs, and counts the transfers whose buckets do not add
// up exactly to their wall time.
func critpathBuckets(col *critpath.Collector) (m map[string]float64, inexact int) {
	sums := map[string]sim.Time{}
	for _, a := range col.Analyze() {
		if !a.Exact() {
			inexact++
		}
		for b, v := range a.Buckets {
			sums[b] += v
		}
	}
	m = map[string]float64{}
	for _, b := range critpath.BucketOrder {
		m["critpath."+b+"_us"] = sums[b].Micros()
	}
	return m, inexact
}
