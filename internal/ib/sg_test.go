package ib

import (
	"fmt"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// vecPlan builds a committed rows×rowBytes hvector plan over a device
// space, filled with a deterministic pattern.
func vecPlan(t *testing.T, rows, rowBytes, pitch, chunkBytes int) (*datatype.ChunkPlan, mem.Ptr) {
	t.Helper()
	dt, err := datatype.Hvector(rows, rowBytes, pitch, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	dt.MustCommit()
	sp := mem.NewDeviceSpace("sgtest", 0, rows*pitch)
	buf := sp.Base()
	mem.Fill(buf, rows*pitch, func(i int) byte { return byte(i*7 + 3) })
	return dt.ChunkPlan(1, chunkBytes), buf
}

// TestGatherCostWQESplitting pins the WQE-splitting arithmetic: one
// PostOverhead per ceil(segments/MaxSGEPerWQE) work requests on top of
// the per-segment and per-byte terms, and a floor of one WQE for the
// contiguous single-segment descriptor.
func TestGatherCostWQESplitting(t *testing.T) {
	m := DefaultModel()
	perSeg := func(segs, bytes int) sim.Time {
		return sim.Time(float64(segs)*m.GatherNsPerSegment() + float64(bytes)*m.NicGatherRate())
	}
	cases := []struct {
		segs, bytes int
		wqes        int
	}{
		{1, 64, 1},
		{32, 1 << 10, 1}, // exactly one full WQE
		{33, 1 << 10, 2}, // one entry spills into a second WQE
		{64, 1 << 10, 2}, // two full WQEs
		{1000, 4 << 10, 32},
	}
	for _, c := range cases {
		want := sim.Time(c.wqes)*m.PostOverhead + perSeg(c.segs, c.bytes)
		if got := m.GatherCost(c.bytes, c.segs); got != want {
			t.Errorf("GatherCost(%dB, %d segs) = %v, want %v (%d WQEs)",
				c.bytes, c.segs, got, want, c.wqes)
		}
	}
}

// TestNicGatherRateFloor checks the bandwidth floor: on the default QDR
// fabric the configured 0.05 ns/B is below the 0.3125 ns/B wire rate, so
// the floor binds; a slower configured rate wins over the floor; and a
// zero-bandwidth model (no wire to floor against) uses the raw rate.
func TestNicGatherRateFloor(t *testing.T) {
	m := DefaultModel()
	if got, want := m.NicGatherRate(), 1e9/m.Bandwidth; got != want {
		t.Errorf("default rate %v, want wire floor %v", got, want)
	}
	m.NicGatherNsPerByte = 1.5
	if got := m.NicGatherRate(); got != 1.5 {
		t.Errorf("slow configured rate %v, want 1.5", got)
	}
	m.NicGatherNsPerByte = 0
	m.Bandwidth = 0
	if got := m.NicGatherRate(); got != DefaultNicGatherNsPerByte {
		t.Errorf("no-wire rate %v, want raw default %v", got, DefaultNicGatherNsPerByte)
	}
}

// TestGatherWriteScatterRoundTrip sends one chunk through the full
// offloaded path — SGE gather on HCA 0, RDMA write, SGE scatter on
// HCA 1 — and checks byte-exact delivery into the strided remote buffer
// plus the per-chunk done upcall.
func TestGatherWriteScatterRoundTrip(t *testing.T) {
	const rows, rowBytes, pitch = 48, 16, 40
	size := rows * rowBytes
	nw := newNet(2)
	srcPlan, src := vecPlan(t, rows, rowBytes, pitch, size)

	dstType, err := datatype.Hvector(rows, rowBytes, pitch, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	dstType.MustCommit()
	dstSpace := mem.NewDeviceSpace("sgtest.dst", 1, rows*pitch)
	dst := dstSpace.Base()

	doneChunks := []int{}
	region := nw.hcas[1].RegisterScatterRegion(
		SGDesc{Plan: dstType.ChunkPlan(1, size), Buf: dst, N: size}, size,
		func(chunk int) { doneChunks = append(doneChunks, chunk) })

	wirePosted := false
	nw.e.Spawn("sender", func(p *sim.Proc) {
		sg := SGDesc{Plan: srcPlan, Buf: src, Off: 0, N: size}
		done := new(sim.Event)
		nw.hcas[0].RDMAWriteGatherRailInto(done, 1, sg, region.Rkey, 0, 0, obs.Span{}, 0,
			func() { wirePosted = true })
		p.Wait(done)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if !wirePosted {
		t.Error("onWirePosted never fired")
	}
	if len(doneChunks) != 1 || doneChunks[0] != 0 {
		t.Errorf("scatter done upcalls = %v, want [0]", doneChunks)
	}
	for r := 0; r < rows; r++ {
		got := dst.Add(r * pitch).Bytes(rowBytes)
		want := src.Add(r * pitch).Bytes(rowBytes)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d byte %d: got %d, want %d", r, i, got[i], want[i])
			}
		}
	}
	// The inter-row gap bytes must stay untouched by the scatter.
	for r := 0; r < rows-1; r++ {
		gap := dst.Add(r*pitch + rowBytes).Bytes(pitch - rowBytes)
		for i, b := range gap {
			if b != 0 {
				t.Fatalf("row %d gap byte %d clobbered: %d", r, i, b)
			}
		}
	}
}

// TestGatherSerializesOnSGEngine checks the per-rail engine discipline:
// two gathers posted together on one rail execute back to back, each
// occupying the engine for exactly its GatherCost.
func TestGatherSerializesOnSGEngine(t *testing.T) {
	const rows, rowBytes, pitch = 8, 32, 64
	size := rows * rowBytes
	nw := newNet(2)
	plan, src := vecPlan(t, rows, rowBytes, pitch, size)
	host := nw.host[1]
	region := nw.hcas[1].Register(host.Base(), 2*size)

	var ends []sim.Time
	nw.e.Spawn("sender", func(p *sim.Proc) {
		sg := SGDesc{Plan: plan, Buf: src, Off: 0, N: size}
		a, b := new(sim.Event), new(sim.Event)
		nw.hcas[0].RDMAWriteGatherRailInto(a, 1, sg, region.Rkey, 0, 0, obs.Span{}, 0, nil)
		nw.hcas[0].RDMAWriteGatherRailInto(b, 1, sg, region.Rkey, size, 0, obs.Span{}, 1, nil)
		a.OnTrigger(func() { ends = append(ends, nw.e.Now()) })
		b.OnTrigger(func() { ends = append(ends, nw.e.Now()) })
		p.Wait(a)
		p.Wait(b)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	cost := nw.f.Model().GatherCost(size, rows)
	if len(ends) != 2 {
		t.Fatalf("completions = %d, want 2", len(ends))
	}
	// The second transfer's wire task cannot start before its gather,
	// which itself waits for the first gather on the serialized engine:
	// completions must be at least one gather cost apart.
	if gap := ends[1] - ends[0]; gap < cost {
		t.Errorf("completion gap %v < serialized gather cost %v", gap, cost)
	}
}

// TestExecuteGatherMatchesModel checks the standalone gather used by the
// crossover sweep: measured duration equals GatherCost exactly, and the
// gathered bytes match a plain CPU pack of the same plan.
func TestExecuteGatherMatchesModel(t *testing.T) {
	for _, rows := range []int{1, 16, 33, 256} {
		const rowBytes, pitch = 16, 48
		size := rows * rowBytes
		nw := newNet(1)
		plan, src := vecPlan(t, rows, rowBytes, pitch, size)
		got := make([]byte, size)
		var dur sim.Time
		nw.e.Spawn("bench", func(p *sim.Proc) {
			t0 := p.Now()
			p.Wait(nw.hcas[0].ExecuteGather(SGDesc{Plan: plan, Buf: src, N: size}, got))
			dur = p.Now() - t0
		})
		if err := nw.e.Run(); err != nil {
			t.Fatal(err)
		}
		if want := nw.f.Model().GatherCost(size, rows); dur != want {
			t.Errorf("rows=%d: ExecuteGather took %v, model says %v", rows, dur, want)
		}
		want := make([]byte, size)
		plan.PackRangeBytes(want, src, 0, size)
		if string(got) != string(want) {
			t.Errorf("rows=%d: gathered bytes differ from plan pack", rows)
		}
	}
}

// TestScatterRegionAcceptsDeviceMemory pins the registration asymmetry:
// plain Register of device memory panics without GPUDirect, but a
// scatter region over the same device buffer is accepted — the SGE
// unit's own DMA path (see the package comment in sg.go).
func TestScatterRegionAcceptsDeviceMemory(t *testing.T) {
	nw := newNet(1)
	sp := mem.NewDeviceSpace("dev", 0, 1<<10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register(device) did not panic without GPUDirect")
			}
		}()
		nw.hcas[0].Register(sp.Base(), 1<<10)
	}()
	region := nw.hcas[0].RegisterScatterRegion(
		SGDesc{Buf: sp.Base(), N: 1 << 10}, 1<<10, func(int) {})
	if region.Len() != 1<<10 {
		t.Errorf("scatter region length %d, want %d", region.Len(), 1<<10)
	}
	nw.hcas[0].Deregister(region)
}

// TestGatherDeterminism runs the same two-chunk offloaded transfer twice
// and requires identical completion timestamps — the property the
// check.sh nic byte-determinism gate enforces end to end.
func TestGatherDeterminism(t *testing.T) {
	run := func() []sim.Time {
		const rows, rowBytes, pitch = 64, 8, 24
		size := rows * rowBytes
		nw := newNet(2)
		plan, src := vecPlan(t, rows, rowBytes, pitch, size)
		region := nw.hcas[1].Register(nw.host[1].Base(), 2*size)
		var ends []sim.Time
		nw.e.Spawn("sender", func(p *sim.Proc) {
			for c := 0; c < 2; c++ {
				sg := SGDesc{Plan: plan, Buf: src, Off: 0, N: size}
				ev := new(sim.Event)
				nw.hcas[0].RDMAWriteGatherRailInto(ev, 1, sg, region.Rkey, c*size, 0, obs.Span{}, c, nil)
				ev.OnTrigger(func() { ends = append(ends, nw.e.Now()) })
				p.Wait(ev)
			}
		})
		if err := nw.e.Run(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("completion times differ across identical runs: %v vs %v", a, b)
	}
}
