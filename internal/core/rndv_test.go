package core_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mpi"
)

// rndvEagerLimit keeps every message of a rendezvous program above the
// eager limit.
const rndvEagerLimit = 64

// genRndvProgram draws a program of concurrent rendezvous transfers
// between two or three ranks: contiguous, vector and indexed types from
// one chunk to many with a short tail, under every route of the route
// table (each pack and unpack mode, GPUDirect, the host-staged ablation),
// on one or two rails, with pools of one to three vbufs so vbuf Gets and
// CTS batches wait, and foreign kernels on the device. About one message
// in four has one end in host memory, where the device end keeps moving
// the bytes hop by hop.
func genRndvProgram(seed int64) program {
	rng := rand.New(rand.NewSource(seed))
	modes := []core.PackMode{core.PackModeAuto, core.PackModeKernel, core.PackModeMemcpy2D, core.PackModeNic}
	pg := program{cfg: cluster.Config{
		Nodes: 2 + rng.Intn(2), Rails: 1 + rng.Intn(2), VbufCount: 1 + rng.Intn(3),
		GPUDirect: rng.Intn(4) == 0,
		MPI:       mpi.Config{EagerLimit: rndvEagerLimit, BlockSize: 256 << rng.Intn(3)},
		Core: core.Config{
			PackMode: modes[rng.Intn(len(modes))], UnpackMode: modes[rng.Intn(len(modes))],
			HostStagedPack: rng.Intn(4) == 0,
		},
	}}
	for i := 0; i < 4; i++ {
		var dt *datatype.Datatype
		var err error
		switch rng.Intn(3) {
		case 0:
			dt, err = datatype.Contiguous(rndvEagerLimit+1+rng.Intn(3000), datatype.Byte)
		case 1:
			w := 4 << rng.Intn(4)
			dt, err = datatype.Vector(rndvEagerLimit/w+1+rng.Intn(120), w, w+rng.Intn(48), datatype.Byte)
		default:
			n := 1 + rng.Intn(20)
			lens, displs := make([]int, n), make([]int, n)
			at := rng.Intn(8)
			for j := range lens {
				lens[j] = 4 + rng.Intn(40)
				displs[j] = at
				at += lens[j] + rng.Intn(24)
			}
			dt, err = datatype.Indexed(lens, displs, datatype.Byte)
		}
		if err != nil {
			panic(err)
		}
		dt.MustCommit()
		pg.types = append(pg.types, dt)
	}
	for i := 2 + rng.Intn(7); i > 0; i-- {
		src := rng.Intn(pg.cfg.Nodes)
		dst := (src + 1 + rng.Intn(pg.cfg.Nodes-1)) % pg.cfg.Nodes
		m := progMsg{src: src, dst: dst, typ: rng.Intn(len(pg.types)), count: 1 + rng.Intn(3)}
		switch rng.Intn(8) {
		case 0:
			m.hostSrc = true
		case 1:
			m.hostDst = true
		}
		for pg.types[m.typ].Size()*m.count <= rndvEagerLimit {
			m.count++
		}
		pg.msgs = append(pg.msgs, m)
	}
	pg.schedule(rng)
	return pg
}

// TestPropRendezvousMatchesReference runs random rendezvous programs
// through the rendezvous records and through the reference pipeline
// processes, and requires the same event firings, item count, received
// memory, pool counters and Chrome trace.
func TestPropRendezvousMatchesReference(t *testing.T) {
	var gdr, staged, nic, kernel, rails2, multi, blocked, batched, host int // runs that reach each path
	f := func(seed int64) bool {
		pg := genRndvProgram(seed)
		got := runProgram(t, pg, nil)
		want := runProgram(t, pg, core.RefRndvTransport)
		c := pg.cfg
		count := func(ok bool, n *int) {
			if ok {
				*n++
			}
		}
		count(c.GPUDirect, &gdr)
		count(c.Core.HostStagedPack, &staged)
		count(c.Core.PackMode == core.PackModeNic || c.Core.UnpackMode == core.PackModeNic, &nic)
		count(c.Core.PackMode == core.PackModeKernel || c.Core.UnpackMode == core.PackModeKernel, &kernel)
		count(c.Rails == 2, &rails2)
		count(got.waits > 0, &blocked)
		for _, m := range pg.msgs {
			if pg.types[m.typ].Size()*m.count > c.MPI.BlockSize {
				multi++
				break
			}
		}
		for _, m := range pg.msgs {
			if m.hostSrc || m.hostDst {
				host++
				break
			}
		}
		// A sender that waits for more CTS batches than there are
		// messages waited for a later batch of some transfer.
		ctsWaits := 0
		for _, l := range got.fired {
			if strings.HasSuffix(l, ".cts: fired") {
				ctsWaits++
			}
		}
		count(ctsWaits > len(pg.msgs), &batched)
		return sameRun(t, seed, got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	for _, p := range []struct {
		name string
		n    int
	}{
		{"GPUDirect", gdr}, {"host-staged", staged}, {"nic", nic}, {"kernel", kernel}, {"two-rail", rails2},
		{"multi-chunk", multi}, {"blocked-vbuf", blocked}, {"CTS-batch", batched}, {"host-end", host},
	} {
		if p.n == 0 {
			t.Errorf("no program reached the %s path", p.name)
		}
	}
	t.Logf("runs: %d GPUDirect, %d host-staged, %d nic, %d kernel, %d two-rail, %d multi-chunk, %d blocked vbuf Gets, %d later CTS batches, %d host ends",
		gdr, staged, nic, kernel, rails2, multi, blocked, batched, host)
}
