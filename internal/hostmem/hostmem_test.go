package hostmem

import (
	"strings"
	"testing"
	"testing/quick"

	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

type fixture struct {
	e    *sim.Engine
	hca  *ib.HCA
	host *mem.Space
}

func newFixture() *fixture {
	e := sim.New()
	f := ib.NewFabric(e, ib.Model{})
	return &fixture{e: e, hca: f.NewHCA(0), host: mem.Reserve(mem.Host, "host", -1, 1<<20)}
}

func TestPoolBasics(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 4096, 8)
	if p.Count() != 8 || p.Free() != 8 || p.ChunkSize() != 4096 {
		t.Fatalf("pool shape: count=%d free=%d chunk=%d", p.Count(), p.Free(), p.ChunkSize())
	}
	v, ok := p.TryGet()
	if !ok {
		t.Fatal("TryGet failed on fresh pool")
	}
	if p.Free() != 7 {
		t.Errorf("free = %d after get", p.Free())
	}
	// vbufs are distinct, aligned on chunk boundaries, registered.
	if v.Region.Len() != 4096 {
		t.Errorf("region len = %d", v.Region.Len())
	}
	p.Put(v)
	if p.Free() != 8 {
		t.Errorf("free = %d after put", p.Free())
	}
	if !strings.Contains(p.Stats(), "gets=1") {
		t.Errorf("stats = %q", p.Stats())
	}
}

func TestVbufsAreDisjoint(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 256, 16)
	seen := map[int]bool{}
	for {
		v, ok := p.TryGet()
		if !ok {
			break
		}
		off := v.Ptr.Offset()
		if off%256 != 0 || seen[off] {
			t.Fatalf("vbuf at offset %d overlaps or misaligned", off)
		}
		seen[off] = true
	}
	if len(seen) != 16 {
		t.Errorf("distinct vbufs = %d, want 16", len(seen))
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 1)
	var acquiredAt sim.Time
	fx.e.Spawn("holder", func(proc *sim.Proc) {
		v := p.Get(proc)
		proc.Sleep(100)
		p.Put(v)
	})
	fx.e.Spawn("waiter", func(proc *sim.Proc) {
		v := p.Get(proc)
		acquiredAt = proc.Now()
		p.Put(v)
	})
	if err := fx.e.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt != 100 {
		t.Errorf("waiter acquired at %v, want 100", acquiredAt)
	}
	if p.MinFree() != 0 {
		t.Errorf("minFree = %d, want 0", p.MinFree())
	}
}

func TestWaitersServedFIFO(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 1)
	var order []string
	fx.e.Spawn("holder", func(proc *sim.Proc) {
		v := p.Get(proc)
		proc.Sleep(10)
		p.Put(v)
	})
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		fx.e.SpawnAt(1, name, func(proc *sim.Proc) {
			v := p.Get(proc)
			order = append(order, name)
			proc.Sleep(1)
			p.Put(v)
		})
	}
	if err := fx.e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "w1,w2,w3"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("service order %s, want %s", got, want)
	}
}

func TestDoublePutPanics(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 2)
	v, _ := p.TryGet()
	p.Put(v)
	defer func() {
		if recover() == nil {
			t.Error("double put did not panic")
		}
	}()
	p.Put(v)
}

func TestForeignPutPanics(t *testing.T) {
	fx := newFixture()
	p1 := NewPool(fx.e, "p1", fx.hca, fx.host.Base(), 64, 2)
	p2 := NewPool(fx.e, "p2", fx.hca, fx.host.Base().Add(1024), 64, 2)
	v, _ := p1.TryGet()
	defer func() {
		if recover() == nil {
			t.Error("foreign put did not panic")
		}
	}()
	p2.Put(v)
}

func TestDevicePoolPanics(t *testing.T) {
	fx := newFixture()
	dev := mem.NewDeviceSpace("gpu", 0, 4096)
	defer func() {
		if recover() == nil {
			t.Error("device-memory pool did not panic")
		}
	}()
	NewPool(fx.e, "bad", fx.hca, dev.Base(), 64, 2)
}

func TestZeroDimensionsPanic(t *testing.T) {
	fx := newFixture()
	defer func() {
		if recover() == nil {
			t.Error("zero-count pool did not panic")
		}
	}()
	NewPool(fx.e, "bad", fx.hca, fx.host.Base(), 64, 0)
}

// Property: any interleaving of gets and puts conserves vbufs — after
// returning everything taken, the pool is full again and every index is
// present exactly once.
func TestPropPoolConservation(t *testing.T) {
	f := func(ops []bool) bool {
		fx := newFixture()
		p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 8)
		var held []*Vbuf
		for _, isGet := range ops {
			if isGet {
				if v, ok := p.TryGet(); ok {
					held = append(held, v)
				}
			} else if len(held) > 0 {
				p.Put(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if p.Free()+len(held) != 8 {
				return false
			}
		}
		for _, v := range held {
			p.Put(v)
		}
		return p.Free() == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHighWaterAndWaits pins the load-telemetry gauges: MaxHeld is the
// concurrent-hold high-water mark, and Waits counts Get calls that found
// the pool empty — each sampled onto the hub as "<pool>.waits".
func TestHighWaterAndWaits(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 2)
	series := obs.NewSeriesTracer()
	p.SetHub(obs.NewHub(fx.e, series))

	// Drain the pool, then two more takers must block (two exhaustion
	// events) while high-water stays at the pool size.
	fx.e.Spawn("holder", func(proc *sim.Proc) {
		a, b := p.Get(proc), p.Get(proc)
		proc.Sleep(100)
		p.Put(a)
		proc.Sleep(100)
		p.Put(b)
	})
	for i := 0; i < 2; i++ {
		fx.e.SpawnAt(1, "blocked", func(proc *sim.Proc) {
			p.Put(p.GetRail(proc, 0))
		})
	}
	if err := fx.e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.MaxHeld() != 2 {
		t.Errorf("MaxHeld = %d, want 2", p.MaxHeld())
	}
	if p.Waits() != 2 {
		t.Errorf("Waits = %d, want 2", p.Waits())
	}
	pts := series.Points("pool.waits")
	if len(pts) != 2 || pts[len(pts)-1].Value != 2 {
		t.Errorf("pool.waits samples = %+v, want cumulative count ending at 2", pts)
	}
}

// TestTryGetDoesNotCountAsWait pins that only blocking Gets are
// exhaustion events: a failed TryGet is back-pressure the caller handles
// itself (the eager path's double-buffer fallback), not a stall.
func TestTryGetDoesNotCountAsWait(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 1)
	v, _ := p.TryGet()
	if _, ok := p.TryGet(); ok {
		t.Fatal("TryGet succeeded on an empty pool")
	}
	p.Put(v)
	if p.Waits() != 0 {
		t.Errorf("Waits = %d after failed TryGet, want 0", p.Waits())
	}
	if p.MaxHeld() != 1 {
		t.Errorf("MaxHeld = %d, want 1", p.MaxHeld())
	}
}

// TestVbufsMappedOnFirstTake pins the pay-per-use pinned range: a vbuf is
// mapped and registered the first time it is handed out and never again,
// so the space maps exactly the distinct vbufs ever taken, each under its
// own rkey, and a never-taken vbuf has no bytes behind it.
func TestVbufsMappedOnFirstTake(t *testing.T) {
	fx := newFixture()
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 8)
	if p.Mapped() != 0 || fx.host.Mappings() != 0 {
		t.Fatalf("fresh pool maps %d vbufs, space %d extents; want 0", p.Mapped(), fx.host.Mappings())
	}
	rkeys := map[uint32]int{}
	taken := map[int]bool{}
	for round := 0; round < 3; round++ {
		var held []*Vbuf
		for i := 0; i < 3-round%2; i++ {
			v, _ := p.TryGet()
			taken[v.Index] = true
			if idx, dup := rkeys[v.Region.Rkey]; dup && idx != v.Index {
				t.Fatalf("vbufs %d and %d share rkey %d", idx, v.Index, v.Region.Rkey)
			}
			rkeys[v.Region.Rkey] = v.Index
			v.Ptr.Bytes(64)[63] = byte(round) // the whole chunk is mapped
			held = append(held, v)
		}
		for _, v := range held {
			p.Put(v)
		}
	}
	if p.Mapped() != len(taken) || fx.host.Mappings() != len(taken) || len(rkeys) != len(taken) {
		t.Errorf("Mapped = %d, space extents = %d, rkeys = %d; want %d distinct vbufs taken",
			p.Mapped(), fx.host.Mappings(), len(rkeys), len(taken))
	}
	if taken[0] {
		t.Fatal("LIFO pool handed out vbuf 0 while others were free")
	}
	untaken := fx.host.Base() // vbuf 0, at the bottom of the free stack
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, untaken.String()) {
			t.Errorf("reading a never-taken vbuf: panic %q does not name %v", msg, untaken)
		}
	}()
	untaken.Bytes(64)
}

// TestPoolRejectsMappedRange pins the constructor contract: the range must
// be reserved, not mapped, because the pool maps each vbuf itself.
func TestPoolRejectsMappedRange(t *testing.T) {
	fx := newFixture()
	fx.host.Map(0, 64)
	p := NewPool(fx.e, "pool", fx.hca, fx.host.Base(), 64, 1)
	defer func() {
		if recover() == nil {
			t.Error("taking a vbuf over an already-mapped range did not panic")
		}
	}()
	p.TryGet()
}
