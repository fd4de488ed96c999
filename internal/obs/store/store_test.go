package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func tmpStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendReloadRoundTrip(t *testing.T) {
	s := tmpStore(t)
	recs := []Record{
		{Source: "critpath", Metric: "critpath.a.wall_us", Unit: "us", Better: BetterLower, Value: 100},
		{Source: "critpath", Metric: "critpath.b.wall_us", Unit: "us", Better: BetterLower, Value: 200},
	}
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Source: "critpath", Metric: "critpath.a.wall_us", Unit: "us", Better: BetterLower, Value: 95, Commit: "pr8"}); err != nil {
		t.Fatal(err)
	}

	re, err := Open(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.Records(), s.Records()) {
		t.Fatalf("reload drifted:\n%+v\nwant\n%+v", re.Records(), s.Records())
	}
	traj := re.Trajectory("critpath.a.wall_us")
	if len(traj) != 2 || traj[0].Value != 100 || traj[1].Value != 95 {
		t.Fatalf("trajectory = %+v", traj)
	}
	if traj[0].Seq != 1 || traj[1].Seq != 3 {
		t.Fatalf("seq numbers = %d, %d; want 1, 3", traj[0].Seq, traj[1].Seq)
	}
	// A second reload must produce byte-identical trajectory content.
	re2, err := Open(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re2.Trajectory("critpath.a.wall_us"), traj) {
		t.Fatal("trajectory not stable across reloads")
	}
}

func TestSeedIsReproducible(t *testing.T) {
	s := tmpStore(t)
	recs := []Record{
		{Source: "pack", Metric: "pack.x", Unit: "us", Better: BetterLower, Value: 7, Commit: "seed"},
		{Source: "pack", Metric: "pack.y", Unit: "us", Better: BetterLower, Value: 9, Commit: "seed"},
	}
	if err := s.Seed(recs); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(recs); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("seed not byte-deterministic:\n%s\nvs\n%s", first, second)
	}
}

func TestLatestAndBest(t *testing.T) {
	s := tmpStore(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Append(Record{Metric: "lat", Better: BetterLower, Value: 100}))
	must(s.Append(Record{Metric: "lat", Better: BetterLower, Value: 80}))
	must(s.Append(Record{Metric: "lat", Better: BetterLower, Value: 90}))
	must(s.Append(Record{Metric: "bw", Better: BetterHigher, Value: 3000}))
	must(s.Append(Record{Metric: "bw", Better: BetterHigher, Value: 4300}))
	must(s.Append(Record{Metric: "info", Value: 1}))
	must(s.Append(Record{Metric: "info", Value: 5}))

	if l, ok := s.Latest("lat"); !ok || l.Value != 90 {
		t.Fatalf("Latest(lat) = %+v, %v", l, ok)
	}
	if b, ok := s.Best("lat"); !ok || b.Value != 80 {
		t.Fatalf("Best(lat) = %+v, %v", b, ok)
	}
	if b, ok := s.Best("bw"); !ok || b.Value != 4300 {
		t.Fatalf("Best(bw) = %+v, %v", b, ok)
	}
	// Informational metrics have no "best"; the latest stands in.
	if b, ok := s.Best("info"); !ok || b.Value != 5 {
		t.Fatalf("Best(info) = %+v, %v", b, ok)
	}
	if _, ok := s.Latest("absent"); ok {
		t.Fatal("Latest on an absent metric reported ok")
	}
	if got := s.Metrics(); !reflect.DeepEqual(got, []string{"bw", "info", "lat"}) {
		t.Fatalf("Metrics() = %v", got)
	}
}

func TestGate(t *testing.T) {
	s := tmpStore(t)
	if err := s.Append(
		Record{Metric: "lat", Better: BetterLower, Value: 100},
		Record{Metric: "lat", Better: BetterLower, Value: 110},
		Record{Metric: "bw", Better: BetterHigher, Value: 1000},
		Record{Metric: "host_ns", Value: 42},
	); err != nil {
		t.Fatal(err)
	}

	// Within tolerance of the best-so-far (100): passes.
	if g := s.Gate("lat", 104, 5); !g.OK {
		t.Fatalf("gate 104 vs best 100 at 5%% failed: %+v", g)
	}
	// >5% regression against best-so-far: fails even though it beats the
	// latest record.
	if g := s.Gate("lat", 106, 5); g.OK {
		t.Fatalf("gate 106 vs best 100 at 5%% passed: %+v", g)
	}
	// Improvements always pass.
	if g := s.Gate("lat", 50, 5); !g.OK || g.RegressionPct >= 0 {
		t.Fatalf("gate on an improvement failed: %+v", g)
	}
	// Higher-better metrics regress downward.
	if g := s.Gate("bw", 940, 5); g.OK {
		t.Fatalf("gate 940 vs best bw 1000 at 5%% passed: %+v", g)
	}
	if g := s.Gate("bw", 960, 5); !g.OK {
		t.Fatalf("gate 960 vs best bw 1000 at 5%% failed: %+v", g)
	}
	// No history and informational metrics pass with a reason.
	if g := s.Gate("brand_new", 1, 5); !g.OK || g.Reason == "" {
		t.Fatalf("gate on unknown metric: %+v", g)
	}
	if g := s.Gate("host_ns", 1e9, 5); !g.OK {
		t.Fatalf("gate on informational metric failed: %+v", g)
	}
}

func TestGateTailCatchesAppendedRegression(t *testing.T) {
	s := tmpStore(t)
	if err := s.Append(
		Record{Metric: "lat", Better: BetterLower, Value: 100},
		Record{Metric: "lat", Better: BetterLower, Value: 98},
	); err != nil {
		t.Fatal(err)
	}
	for _, g := range s.GateTail(5) {
		if !g.OK {
			t.Fatalf("clean trajectory failed the tail gate: %+v", g)
		}
	}
	// Append a synthetic >5% regression: the self-check must now fail.
	if err := s.Append(Record{Metric: "lat", Better: BetterLower, Value: 120, Commit: "synthetic"}); err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, g := range s.GateTail(5) {
		if g.Metric == "lat" && !g.OK {
			failed = true
		}
	}
	if !failed {
		t.Fatal("tail gate passed a 20% appended regression")
	}
}

func TestOpenRejectsFutureSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	line := `{"schema":99,"seq":1,"source":"x","metric":"m","value":1}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("opened a store from the future")
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("missing file loaded %d records", s.Len())
	}
}

// TestAppendBench: a bench document goes in as its extracted records,
// each stamped with the commit, after what the store already holds, and
// the append is reported; a document of no known format appends nothing.
func TestAppendBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	var out strings.Builder
	for _, doc := range []string{packDoc, loadDoc} {
		if err := AppendBench(&out, path, "c1", []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, pack, _ := Extract([]byte(packDoc))
	_, load, _ := Extract([]byte(loadDoc))
	want := append(pack, load...)
	got := s.Records()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Commit != "c1" || r.Seq != i+1 || r.Metric != want[i].Metric || r.Value != want[i].Value {
			t.Fatalf("record %d = %+v, want %s=%g at seq %d from c1", i, r, want[i].Metric, want[i].Value, i+1)
		}
	}
	if want := fmt.Sprintf("Perf store: appended %d pack metric(s) to %s\nPerf store: appended %d load metric(s) to %s\n",
		len(pack), path, len(load), path); out.String() != want {
		t.Errorf("reported %q, want %q", out.String(), want)
	}
	if err := AppendBench(&out, path, "c2", []byte(`{"unknown": 1}`)); err == nil {
		t.Error("an unknown document appended without an error")
	}
}
