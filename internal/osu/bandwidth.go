package osu

import (
	"fmt"

	"mv2sim/internal/cluster"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mpi"
	"mv2sim/internal/report"
	"mv2sim/internal/sim"
)

// Bandwidth measures osu_bw-style streaming throughput for non-contiguous
// device vectors under MV2-GPU-NC: a window of back-to-back non-blocking
// sends, completed by a zero-byte acknowledgement. It extends the paper's
// latency-only evaluation in the direction its future work names.
//
// Returned value is MB/s (10^6 bytes per second) of packed payload.
func Bandwidth(msgBytes, window int, cfg VectorConfig) (float64, error) {
	cfg = cfg.withDefaults(msgBytes)
	rows := msgBytes / cfg.ElemBytes
	if rows == 0 {
		rows = 1
	}
	span := rows * cfg.PitchBytes
	// Device memory must hold the strided user buffer plus one packed tbuf
	// per in-flight message.
	if need := span + window*msgBytes + (32 << 20); cfg.Cluster.GPUMemBytes < need {
		cfg.Cluster.GPUMemBytes = need
	}
	vec, err := datatype.Vector(rows, cfg.ElemBytes, cfg.PitchBytes, datatype.Byte)
	if err != nil {
		return 0, fmt.Errorf("osu: bandwidth datatype: %w", err)
	}
	if err := vec.Commit(); err != nil {
		return 0, fmt.Errorf("osu: commit bandwidth datatype: %w", err)
	}

	cl := cluster.New(cfg.Cluster)
	var elapsed sim.Time
	runErr := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(span)
		defer freeOrPanic(n.Ctx, buf)
		switch r.Rank() {
		case 0:
			t0 := r.Now()
			reqs := make([]*mpi.Request, window)
			for i := 0; i < window; i++ {
				reqs[i] = r.Isend(buf, 1, vec, 1, i)
			}
			r.Waitall(reqs...)
			r.Recv(buf, 0, datatype.Byte, 1, 1<<20) // ack
			elapsed = r.Now() - t0
		case 1:
			reqs := make([]*mpi.Request, window)
			for i := 0; i < window; i++ {
				reqs[i] = r.Irecv(buf, 1, vec, 0, i)
			}
			r.Waitall(reqs...)
			r.Send(buf, 0, datatype.Byte, 0, 1<<20)
		}
	})
	if runErr != nil {
		return 0, fmt.Errorf("osu: bandwidth (%s, window %d): %w", report.ByteSize(msgBytes), window, runErr)
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		return 0, err
	}
	totalBytes := float64(window) * float64(msgBytes)
	return totalBytes / elapsed.Seconds() / 1e6, nil
}

// BidirBandwidth measures osu_bibw-style aggregate throughput: both ranks
// stream a window of vector messages at each other simultaneously.
func BidirBandwidth(msgBytes, window int, cfg VectorConfig) (float64, error) {
	cfg = cfg.withDefaults(msgBytes)
	rows := msgBytes / cfg.ElemBytes
	if rows == 0 {
		rows = 1
	}
	span := rows * cfg.PitchBytes
	// Two strided user buffers plus packed tbufs for every in-flight
	// message in both directions.
	if need := 2*span + 2*window*msgBytes + (32 << 20); cfg.Cluster.GPUMemBytes < need {
		cfg.Cluster.GPUMemBytes = need
	}
	vec, err := datatype.Vector(rows, cfg.ElemBytes, cfg.PitchBytes, datatype.Byte)
	if err != nil {
		return 0, fmt.Errorf("osu: bidir bandwidth datatype: %w", err)
	}
	if err := vec.Commit(); err != nil {
		return 0, fmt.Errorf("osu: commit bidir bandwidth datatype: %w", err)
	}

	cl := cluster.New(cfg.Cluster)
	var elapsed sim.Time
	runErr := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		tx := n.Ctx.MustMalloc(span)
		defer freeOrPanic(n.Ctx, tx)
		rx := n.Ctx.MustMalloc(span)
		defer freeOrPanic(n.Ctx, rx)
		peer := 1 - r.Rank()
		t0 := r.Now()
		reqs := make([]*mpi.Request, 0, 2*window)
		for i := 0; i < window; i++ {
			reqs = append(reqs, r.Irecv(rx, 1, vec, peer, i))
		}
		for i := 0; i < window; i++ {
			reqs = append(reqs, r.Isend(tx, 1, vec, peer, i))
		}
		r.Waitall(reqs...)
		r.Barrier()
		if r.Rank() == 0 {
			elapsed = r.Now() - t0
		}
	})
	if runErr != nil {
		return 0, fmt.Errorf("osu: bidir bandwidth (%s, window %d): %w", report.ByteSize(msgBytes), window, runErr)
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		return 0, err
	}
	totalBytes := 2 * float64(window) * float64(msgBytes)
	return totalBytes / elapsed.Seconds() / 1e6, nil
}

// RunBandwidthTable sweeps message sizes and reports uni- and
// bidirectional streaming bandwidth of non-contiguous device vectors.
func RunBandwidthTable(sizes []int, window int, cfg VectorConfig) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Vector streaming bandwidth, window %d (MB/s)", window),
		"size", "unidirectional", "bidirectional")
	for _, size := range sizes {
		uni, err := Bandwidth(size, window, cfg)
		if err != nil {
			return nil, err
		}
		bidir, err := BidirBandwidth(size, window, cfg)
		if err != nil {
			return nil, err
		}
		t.Add(report.ByteSize(size),
			fmt.Sprintf("%.0f", uni),
			fmt.Sprintf("%.0f", bidir))
	}
	return t, nil
}

// RailsSweep measures unidirectional vector streaming bandwidth at a fixed
// message size across HCA rail counts — the multi-rail scaling view. Large
// messages should gain with rails until a non-wire stage (pack engine,
// PCIe) becomes the bottleneck; the speedup column is relative to the first
// entry.
func RailsSweep(msgBytes, window int, rails []int, cfg VectorConfig) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Multi-rail streaming bandwidth, %s vector message, window %d", report.ByteSize(msgBytes), window),
		"rails", "bandwidth (MB/s)", "speedup")
	var base float64
	for i, nr := range rails {
		c := cfg
		c.Cluster.Rails = nr
		bw, err := Bandwidth(msgBytes, window, c)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = bw
		}
		t.Add(fmt.Sprintf("%d", nr),
			fmt.Sprintf("%.0f", bw),
			fmt.Sprintf("%.2fx", bw/base))
	}
	return t, nil
}

// MultiPairLatency runs the vector latency measurement on `pairs` disjoint
// node pairs simultaneously (ranks 2i -> 2i+1) and returns the slowest
// pair's transfer time. On a non-blocking fabric like the paper's 8-node
// QDR cluster, disjoint pairs must not slow each other down.
func MultiPairLatency(msgBytes, pairs int, cfg VectorConfig) (sim.Time, error) {
	cfg = cfg.withDefaults(msgBytes)
	cfg.Cluster.Nodes = 2 * pairs
	rows := msgBytes / cfg.ElemBytes
	if rows == 0 {
		rows = 1
	}
	span := rows * cfg.PitchBytes
	if cfg.Cluster.GPUMemBytes < span+(4<<20) {
		cfg.Cluster.GPUMemBytes = span + (8 << 20) // room for the vector plus staging
	}
	vec, err := datatype.Vector(rows, cfg.ElemBytes, cfg.PitchBytes, datatype.Byte)
	if err != nil {
		return 0, fmt.Errorf("osu: multi-pair datatype: %w", err)
	}
	if err := vec.Commit(); err != nil {
		return 0, fmt.Errorf("osu: commit multi-pair datatype: %w", err)
	}

	cl := cluster.New(cfg.Cluster)
	var worst sim.Time
	runErr := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(span)
		defer freeOrPanic(n.Ctx, buf)
		r.Barrier()
		t0 := r.Now()
		if r.Rank()%2 == 0 {
			r.Send(buf, 1, vec, r.Rank()+1, 0)
		} else {
			r.Recv(buf, 1, vec, r.Rank()-1, 0)
			if d := r.Now() - t0; d > worst {
				worst = d
			}
		}
	})
	if runErr != nil {
		return 0, fmt.Errorf("osu: multi-pair latency (%s, %d pairs): %w", report.ByteSize(msgBytes), pairs, runErr)
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		return 0, err
	}
	return worst, nil
}
