package dash_test

import (
	"bytes"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/load"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/obs/dash"
	"mv2sim/internal/obs/store"
	"mv2sim/internal/osu"
)

var update = flag.Bool("update", false, "rewrite golden endpoint payloads")

// runDash drives the pinned pipetrace configuration (1 MB vector, pitch
// 16, memcpy2d — the same run the committed trace golden pins) with the
// full dashboard bundle attached and returns the bundle plus the Chrome
// trace document.
func runDash(t testing.TB, msg, rails int, mode core.PackMode) (dash.Bundle, []byte) {
	t.Helper()
	b := dash.NewBundle()
	chrome := obs.NewChromeTracer()
	cfg := cluster.Config{Rails: rails, Tracers: append(b.Tracers(), chrome)}
	cfg.Core.PackMode = mode
	cfg.Core.UnpackMode = mode
	if _, err := osu.VectorTransfer(msg, 16, cfg); err != nil {
		t.Fatal(err)
	}
	return b, []byte(chrome.JSON())
}

// fixtureStore seeds a small deterministic trajectory store.
func fixtureStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	err = st.Seed([]store.Record{
		{Commit: "aaaa111", Source: "critpath", Metric: "critpath.msg1M_rails1_memcpy2d.wall_us",
			Unit: "us", Better: store.BetterLower, Value: 2950.0},
		{Commit: "bbbb222", Source: "critpath", Metric: "critpath.msg1M_rails1_memcpy2d.wall_us",
			Unit: "us", Better: store.BetterLower, Value: 2931.5},
		{Commit: "aaaa111", Source: "wallclock", Metric: "wallclock.rails_bandwidth_mbs.rails2",
			Unit: "MB/s", Better: store.BetterHigher, Value: 11900},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEndpointGoldens pins every JSON endpoint's byte output for the
// standard pinned run. Regenerate with `go test ./internal/obs/dash
// -run Goldens -update` after an intentional payload change.
func TestEndpointGoldens(t *testing.T) {
	b, trace := runDash(t, 1<<20, 1, core.PackModeMemcpy2D)
	srv := dash.New("pipetrace_1M_memcpy2d", b, trace, fixtureStore(t))

	dir := t.TempDir()
	if err := srv.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("snapshot wrote nothing: %v", err)
	}
	for _, name := range names {
		base := filepath.Base(name)
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", base)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update): %v", golden, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden:\n--- got\n%s\n--- want\n%s", base, got, want)
		}
	}
}

// TestSnapshotDeterministic asserts two independent runs snapshot
// byte-identically — the property the check.sh dashboard gate rests on.
func TestSnapshotDeterministic(t *testing.T) {
	dirs := [2]string{}
	for i := range dirs {
		b, trace := runDash(t, 256<<10, 2, core.PackModeKernel)
		srv := dash.New("det", b, trace, nil)
		dirs[i] = t.TempDir()
		if err := srv.Snapshot(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := filepath.Glob(filepath.Join(dirs[0], "*.json"))
	for _, name := range names {
		a, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, bb) {
			t.Errorf("%s differs between identical runs:\n%s\nvs\n%s", filepath.Base(name), a, bb)
		}
	}
}

// TestReplayMatchesLive asserts a dashboard rebuilt from the Chrome
// trace (the -trace flag's path) serves the same bytes as the live run.
func TestReplayMatchesLive(t *testing.T) {
	b, trace := runDash(t, 1<<20, 2, core.PackModeKernel)
	col, err := critpath.Ingest(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	live := dash.New("x", b, trace, nil)
	replay := dash.New("x", dash.Replay(col), trace, nil)

	liveDir, replayDir := t.TempDir(), t.TempDir()
	if err := live.Snapshot(liveDir); err != nil {
		t.Fatal(err)
	}
	if err := replay.Snapshot(replayDir); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(liveDir, "*.json"))
	for _, name := range names {
		a, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(replayDir, filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, bb) {
			t.Errorf("%s: replayed dashboard differs from live:\n--- live\n%s\n--- replay\n%s",
				filepath.Base(name), a, bb)
		}
	}
}

// TestHandler exercises the HTTP layer: every endpoint serves its
// payload bytes, the trace downloads, and the embedded page is at /.
func TestHandler(t *testing.T) {
	b, trace := runDash(t, 64<<10, 1, core.PackModeMemcpy2D)
	srv := dash.New("http", b, trace, fixtureStore(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	dir := t.TempDir()
	if err := srv.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"meta", "resources", "stats", "percentiles", "critpath", "trajectory", "series", "load"} {
		code, body := get("/api/" + ep)
		if code != 200 {
			t.Fatalf("/api/%s = %d", ep, code)
		}
		want, err := os.ReadFile(filepath.Join(dir, ep+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("/api/%s served bytes differ from snapshot", ep)
		}
	}

	if code, body := get("/api/trace"); code != 200 || !bytes.Equal(body, trace) {
		t.Errorf("/api/trace = %d, %d bytes (want 200 with the trace document)", code, len(body))
	}
	if code, body := get("/"); code != 200 || !strings.Contains(string(body), "mv2sim pipeline dashboard") {
		t.Errorf("/ = %d, missing embedded page", code)
	}

	// Attaching a load sweep flips /api/load from a stub to the document.
	doc := &load.Doc{Schema: load.LoadSchema, Seed: 1, Pairs: 4,
		Rails: 1, PackMode: "auto", HorizonMs: 2,
		Curves: []load.Curve{load.NewCurve(load.Poisson, []load.Result{
			{OfferedMBs: 1000, GoodputMBs: 990, Transfers: 10, P50Us: 50, P99Us: 90, MaxUs: 120, MakespanMs: 1.5},
		})}}
	srv.SetLoad(doc)
	if code, body := get("/api/load"); code != 200 ||
		!strings.Contains(string(body), `"available": true`) ||
		!strings.Contains(string(body), `"knee_offered_mbs": 1000`) {
		t.Errorf("/api/load with sweep = %d:\n%s", code, body)
	}

	// A traceless server 404s the download rather than serving empty JSON.
	bare := dash.New("bare", dash.NewBundle(), nil, nil)
	ts2 := httptest.NewServer(bare.Handler())
	defer ts2.Close()
	resp, err := ts2.Client().Get(ts2.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("traceless /api/trace = %d, want 404", resp.StatusCode)
	}
}
