package osu

import (
	"errors"
	"fmt"

	"mv2sim/internal/cluster"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
)

// VectorTransfer runs the paper's traced transfer: one vector of msg/4
// float32 elements, pitch bytes apart, sent once from rank 0's GPU to
// rank 1's GPU with MV2-GPU-NC (the shape of Figure 3 and of Figure
// 5(b)'s points). cfg carries the caller's tracers, rails and pack
// engines; a zero GPUMemBytes defaults to room for both matrices plus
// 64 MiB. After the run it checks that rank 1 received the packed bytes
// rank 0 sent, frees both buffers and runs the device leak gate. The
// returned cluster has finished running; its World, Nodes and
// statistics stay readable.
func VectorTransfer(msg, pitch int, cfg cluster.Config) (*cluster.Cluster, error) {
	rows := msg / 4
	vec, err := datatype.Vector(rows, 1, pitch/4, datatype.Float32)
	if err != nil {
		return nil, fmt.Errorf("osu: vector datatype: %w", err)
	}
	if err := vec.Commit(); err != nil {
		return nil, fmt.Errorf("osu: commit vector datatype: %w", err)
	}
	if cfg.GPUMemBytes == 0 {
		cfg.GPUMemBytes = 2*rows*pitch + (64 << 20)
	}
	span := vec.Span(1)

	cl := cluster.New(cfg)
	var bufs [2]mem.Ptr // rank 0's source, rank 1's destination
	err = cl.Run(func(n *cluster.Node) {
		r := n.Rank
		switch r.Rank() {
		case 0:
			bufs[0] = n.Ctx.MustMalloc(span)
			mem.Fill(bufs[0], span, func(i int) byte { return byte(i) })
			r.Send(bufs[0], 1, vec, 1, 0)
		case 1:
			bufs[1] = n.Ctx.MustMalloc(span)
			r.Recv(bufs[1], 1, vec, 0, 0)
		}
	})
	if err != nil {
		err = fmt.Errorf("osu: vector transfer (%d B, pitch %d): %w", msg, pitch, err)
	} else {
		err = checkDelivered(vec, bufs[0], bufs[1])
	}
	// Free is table bookkeeping, so it runs after the engine has stopped.
	for i, p := range bufs {
		if !p.IsNil() {
			err = errors.Join(err, cl.Nodes[i].Ctx.Free(p))
		}
	}
	if err == nil {
		err = cl.CheckDeviceLeaks()
	}
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// checkDelivered reports the first packed byte of one dt element that
// differs between the sender's buffer src and the receiver's dst. Bytes
// outside the type's runs are not compared: the transfer leaves them
// alone.
func checkDelivered(dt *datatype.Datatype, src, dst mem.Ptr) error {
	sent := make([]byte, dt.Size())
	got := make([]byte, dt.Size())
	dt.PackBytes(sent, src, 1)
	dt.PackBytes(got, dst, 1)
	for i := range sent {
		if got[i] != sent[i] {
			return fmt.Errorf("osu: rank 1 received packed byte %d = %#x, rank 0 sent %#x", i, got[i], sent[i])
		}
	}
	return nil
}
