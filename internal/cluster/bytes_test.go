package cluster

import (
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
)

// byteWork sends a 1 MB vector (262144 rows of 4 bytes at pitch 64) from
// rank 0 to rank 1 twice, each end in device memory or, with host set, in
// host memory, checks that both arrive byte-exact, and returns the byte
// work of the second transfer: the first maps the vbufs and fills the
// recycler with what a transfer frees. A zero-byte message from rank 1
// separates the two, so the reading covers the second transfer only.
func byteWork(t *testing.T, hostSrc, hostDst bool) mem.ByteCounters {
	t.Helper()
	vec, err := datatype.Vector(1<<18, 4, 64, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	vec.MustCommit()
	span := vec.Span(1)
	cl := New(Config{Nodes: 2, GPUMemBytes: 2*span + 8<<20, HostHeapBytes: 2*span + 8<<20})
	alloc := func(n *Node, host bool) mem.Ptr {
		if host {
			return n.Rank.AllocHost(span)
		}
		return n.Ctx.MustMalloc(span)
	}
	var before, after mem.ByteCounters
	var src, dst mem.Ptr
	err = cl.Run(func(n *Node) {
		r := n.Rank
		if r.Rank() == 0 {
			src = alloc(n, hostSrc)
			mem.Fill(src, span, func(i int) byte { return byte(i*7 + 1) })
			r.Send(src, 1, vec, 1, 0)
			r.Recv(mem.Ptr{}, 0, datatype.Byte, 1, 1)
			r.Send(src, 1, vec, 1, 2)
			return
		}
		dst = alloc(n, hostDst)
		r.Recv(dst, 1, vec, 0, 0)
		checkVector(t, vec, src, dst, "first")
		clear(dst.Bytes(span))
		before = cl.ByteCounters()
		r.Send(mem.Ptr{}, 0, datatype.Byte, 0, 1)
		r.Recv(dst, 1, vec, 0, 2)
		after = cl.ByteCounters()
		checkVector(t, vec, src, dst, "second")
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem.ByteCounters{Copied: after.Copied - before.Copied, Zeroed: after.Zeroed - before.Zeroed}
}

func checkVector(t *testing.T, vec *datatype.Datatype, src, dst mem.Ptr, which string) {
	t.Helper()
	sent, got := make([]byte, vec.Size()), make([]byte, vec.Size())
	vec.PackBytes(sent, src, 1)
	vec.PackBytes(got, dst, 1)
	if string(sent) != string(got) {
		t.Errorf("%s 1 MB vector arrived corrupt", which)
	}
}

// TestStagedRendezvousMovesNoStagingBytes pins the byte work of a 1 MB
// device vector rendezvous on the staged route, the paper's pipeline:
// the sender packs into the transfer's packed buffer and the receiver
// unpacks out of the same buffer, so the D2H, the RDMA write and the H2D
// in between copy nothing, and neither tbuf is cleared. The pack and
// unpack are strided and not counted. Moving the bytes at every hop
// costs 4 MB of copies (D2H, RDMA snapshot, RDMA landing, H2D) and up to
// 2 MB of cleared tbufs.
//
// A transfer with a host end keeps moving bytes at every hop: the host
// side offers or holds no packed buffer, which the rendezvous messages
// tell the device side. Those still arrive byte-exact, and their copies
// show the hops still move them.
func TestStagedRendezvousMovesNoStagingBytes(t *testing.T) {
	if w := byteWork(t, false, false); w.Copied != 0 || w.Zeroed != 0 {
		t.Errorf("device to device: copied %d B and zeroed %d B, want 0 and 0", w.Copied, w.Zeroed)
	}
	const mb = 1 << 20
	for _, c := range []struct {
		name             string
		hostSrc, hostDst bool
	}{{"device to host", false, true}, {"host to device", true, false}} {
		// Each moves the packed megabyte through at least the RDMA
		// snapshot and landing.
		if w := byteWork(t, c.hostSrc, c.hostDst); w.Copied < 2*mb {
			t.Errorf("%s: copied %d B, want at least %d: the hops moved no bytes", c.name, w.Copied, 2*mb)
		}
	}
}

// TestByteCountersPerCluster runs two clusters at once and requires each
// to count only its own work.
func TestByteCountersPerCluster(t *testing.T) {
	done := make(chan mem.ByteCounters)
	for i := 0; i < 2; i++ {
		go func() {
			cl := New(Config{Nodes: 2, NoGPU: true, MPI: mpi.Config{EagerLimit: 1 << 20}})
			err := cl.Run(func(n *Node) {
				r := n.Rank
				buf := r.AllocHost(4096)
				if r.Rank() == 0 {
					r.Send(buf, 4096, datatype.Byte, 1, 0)
				} else {
					r.Recv(buf, 4096, datatype.Byte, 0, 0)
				}
			})
			if err != nil {
				t.Error(err)
			}
			done <- cl.ByteCounters()
		}()
	}
	a, b := <-done, <-done
	if a != b || a.Copied == 0 {
		t.Errorf("two identical concurrent clusters counted %+v and %+v", a, b)
	}
}
