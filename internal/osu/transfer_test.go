package osu

import (
	"strings"
	"testing"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
)

// TestVectorTransferDelivers runs the traced transfer down the eager path
// and the rendezvous pipeline under each pack engine and two rail counts:
// every run must deliver rank 0's packed bytes to rank 1 (VectorTransfer
// checks and reports a mismatch), take the protocol its size selects,
// leave no device allocation behind and report its pipeline block size.
func TestVectorTransferDelivers(t *testing.T) {
	for _, tc := range []struct {
		name         string
		msg, pitch   int
		mode         core.PackMode
		rails, block int
		eager        bool
	}{
		{name: "eager", msg: 4 << 10, pitch: 16, eager: true},
		{name: "memcpy2d", msg: 256 << 10, pitch: 16, mode: core.PackModeMemcpy2D},
		{name: "kernel-rails2", msg: 256 << 10, pitch: 64, mode: core.PackModeKernel, rails: 2},
		{name: "nic-block16k", msg: 256 << 10, pitch: 16, mode: core.PackModeNic, block: 16 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Config{Rails: tc.rails}
			cfg.Core.PackMode, cfg.Core.UnpackMode = tc.mode, tc.mode
			cfg.MPI.BlockSize = tc.block
			cl, err := VectorTransfer(tc.msg, tc.pitch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.block
			if want == 0 {
				want = mpi.DefaultBlockSize
			}
			if got := cl.World.Config().BlockSize; got != want {
				t.Errorf("BlockSize = %d, want %d", got, want)
			}
			st := cl.Nodes[1].Rank.Stats()
			wantEager, wantRndv := 0, 1
			if tc.eager {
				wantEager, wantRndv = 1, 0
			}
			if st.EagerRecvd != wantEager || st.RndvRecvd != wantRndv {
				t.Errorf("rank 1 received %d eager and %d rendezvous messages, want %d and %d",
					st.EagerRecvd, st.RndvRecvd, wantEager, wantRndv)
			}
			if err := cl.CheckDeviceLeaks(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckDeliveredComparesPackedBytes pins the delivery check itself:
// a changed byte inside the vector's runs is reported by its packed
// offset, a changed byte in the gaps between runs is not.
func TestCheckDeliveredComparesPackedBytes(t *testing.T) {
	const rows, pitch = 64, 16
	vec, err := datatype.Vector(rows, 1, pitch/4, datatype.Float32)
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	span := vec.Span(1)
	src := mem.NewHostSpace("src", span).Base()
	dst := mem.NewHostSpace("dst", span).Base()
	mem.Fill(src, span, func(i int) byte { return byte(i + 1) })
	if err := checkDelivered(vec, src, dst); err == nil {
		t.Fatal("an untouched destination passed the delivery check")
	}

	packed := make([]byte, vec.Size())
	vec.PackBytes(packed, src, 1)
	vec.UnpackBytes(dst, packed, 1)
	if err := checkDelivered(vec, src, dst); err != nil {
		t.Fatalf("exact delivery rejected: %v", err)
	}
	dst.Add(3*pitch + 4).Bytes(1)[0] ^= 0xff // a gap byte of row 3
	if err := checkDelivered(vec, src, dst); err != nil {
		t.Fatalf("a changed gap byte was reported: %v", err)
	}
	dst.Add(5*pitch + 2).Bytes(1)[0] ^= 0xff // packed byte 5*4+2
	err = checkDelivered(vec, src, dst)
	if err == nil || !strings.Contains(err.Error(), "packed byte 22 ") {
		t.Fatalf("changed packed byte 22: got %v", err)
	}
}
