package load

import (
	"bytes"
	"testing"
	"testing/quick"

	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Process: Bursty, OfferedMBs: 4000, Horizon: sim.Millisecond}
	a, b := Schedule(cfg, 1), Schedule(cfg, 1)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSchedulePairsIndependent(t *testing.T) {
	cfg := Config{Seed: 7, Process: Poisson, OfferedMBs: 4000, Horizon: sim.Millisecond}
	a, b := Schedule(cfg, 0), Schedule(cfg, 1)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("pairs 0 and 1 drew identical schedules")
	}
}

func TestScheduleShape(t *testing.T) {
	for _, proc := range Processes {
		cfg := Config{Seed: 3, Process: proc, Pairs: 2, OfferedMBs: 8000, Horizon: 2 * sim.Millisecond}
		cfg = cfg.withDefaults()
		items := Schedule(cfg, 0)
		if len(items) == 0 {
			t.Fatalf("%s: empty schedule", proc)
		}
		last := sim.Time(0)
		for i, it := range items {
			if it.At <= last {
				t.Fatalf("%s: item %d at %v not after %v", proc, i, it.At, last)
			}
			if it.At >= cfg.Horizon {
				t.Fatalf("%s: item %d at %v beyond horizon", proc, i, it.At)
			}
			if it.Bytes != cfg.Sizes[it.SizeIdx] {
				t.Fatalf("%s: item %d bytes %d != Sizes[%d]", proc, i, it.Bytes, it.SizeIdx)
			}
			last = it.At
		}
		// The long-run offered rate tracks the configured per-pair rate.
		// Bursty's two-state mix systematically under-offers (the cold
		// state lingers), so only bound it loosely from below.
		offered := float64(ScheduledBytes(items)) / cfg.Horizon.Seconds() / 1e6
		want := cfg.OfferedMBs / float64(cfg.Pairs)
		if offered > 2*want || offered < want/8 {
			t.Fatalf("%s: offered %.0f MB/s too far from configured %.0f", proc, offered, want)
		}
	}
}

func TestScheduleRejectsUnknownProcess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown process did not panic")
		}
	}()
	Schedule(Config{Process: Process("bogus"), OfferedMBs: 100, Horizon: sim.Millisecond}, 0)
}

func TestParseProcess(t *testing.T) {
	for _, proc := range Processes {
		got, err := ParseProcess(string(proc))
		if err != nil || got != proc {
			t.Fatalf("ParseProcess(%q) = %v, %v", proc, got, err)
		}
	}
	if _, err := ParseProcess("uniform"); err == nil {
		t.Fatal("ParseProcess accepted an unknown name")
	}
}

func TestDetectKnee(t *testing.T) {
	pts := []Result{
		{OfferedMBs: 1000, GoodputMBs: 990},
		{OfferedMBs: 2000, GoodputMBs: 1950},
		{OfferedMBs: 4000, GoodputMBs: 3000}, // 0.75 < 0.9: saturated
		{OfferedMBs: 8000, GoodputMBs: 3100},
	}
	if k := DetectKnee(pts); k != 1 {
		t.Fatalf("knee = %d, want 1", k)
	}
	if k := DetectKnee(pts[2:]); k != -1 {
		t.Fatalf("all-saturated knee = %d, want -1", k)
	}
	c := NewCurve(Poisson, pts)
	if c.KneeOfferedMBs != 2000 || c.PeakGoodputMBs != 3100 {
		t.Fatalf("curve knee/peak = %.0f/%.0f", c.KneeOfferedMBs, c.PeakGoodputMBs)
	}
}

// smallConfig is a fast single-point configuration for harness tests.
func smallConfig(proc Process) Config {
	return Config{
		Seed:       11,
		Process:    proc,
		Pairs:      2,
		OfferedMBs: 4000,
		Horizon:    300 * sim.Microsecond,
		MaxPosted:  8,
	}
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(smallConfig(Poisson))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers == 0 {
		t.Fatal("no transfers delivered")
	}
	if res.GoodputMBs <= 0 || res.OfferedMBs <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	if res.P50Us <= 0 || res.P99Us < res.P50Us || res.MaxUs < res.P99Us {
		t.Fatalf("tail ordering broken: %+v", res)
	}
	if res.MakespanMs <= 0 {
		t.Fatalf("makespan %v", res.MakespanMs)
	}
}

// TestRunDeterministicPerSeed is the identical-seed property: for every
// arrival process, two runs with the same seed produce a byte-identical
// event trace AND a byte-identical bench document.
func TestRunDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated sweep")
	}
	type run struct {
		trace []byte
		doc   []byte
	}
	// docRails is the rail count the document records: smallConfig's
	// cluster runs on one rail.
	const docRails = 1
	once := func(proc Process, seed int64) run {
		chrome := obs.NewChromeTracer()
		cfg := smallConfig(proc)
		cfg.Seed = seed
		cfg.Tracers = []obs.Tracer{chrome}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Doc{Schema: LoadSchema, Seed: seed, Pairs: cfg.Pairs, Rails: docRails,
			PackMode: "auto", HorizonMs: cfg.Horizon.Millis(),
			Curves: []Curve{NewCurve(proc, []Result{res})}}.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return run{trace: []byte(chrome.JSON()), doc: doc}
	}
	seed := int64(0)
	prop := func(rawSeed uint8) bool {
		seed++ // quick's generator is arbitrary; a small rotating seed is enough
		_ = rawSeed
		for _, proc := range Processes {
			first := once(proc, seed)
			again := once(proc, seed)
			if !bytes.Equal(first.trace, again.trace) {
				t.Logf("%s seed %d: traces differ (%d vs %d bytes)", proc, seed, len(first.trace), len(again.trace))
				return false
			}
			if !bytes.Equal(first.doc, again.doc) {
				t.Logf("%s seed %d: docs differ:\n%s\n%s", proc, seed, first.doc, again.doc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestDocMarshalRejectsWrongSchema(t *testing.T) {
	if _, err := (Doc{Schema: 99}).Marshal(); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
