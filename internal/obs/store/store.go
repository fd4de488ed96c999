// Package store is the append-only perf-regression store: one JSON-lines
// file holding every benchmark metric the repo has ever recorded, one
// record per metric per PR/commit. It is the persistent counterpart of
// the BENCH_*.json snapshots — where a BENCH file is "what this run
// measured", the store is "what every run so far measured", so
// scripts/check.sh can gate on the recorded trajectory instead of
// hand-pinned constants, and cmd/dashboard can plot the series.
//
// The format is deliberately boring: schema-versioned JSON objects, one
// per line, appended and never rewritten (Seed is the only operation
// that truncates, used to regenerate the committed seed from the
// committed BENCH files). Records carry no wall-clock timestamps — the
// same inputs must produce the same bytes, so seeding is reproducible
// and the dashboard's trajectory endpoint is golden-testable.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// SchemaVersion is the record schema this package writes. Readers accept
// any record whose Schema is <= SchemaVersion and reject newer ones, so
// an old binary fails loudly on a store from the future instead of
// silently mis-gating.
const SchemaVersion = 1

// Better* are the allowed values of Record.Better.
const (
	BetterLower  = "lower"  // latency-like: smaller is an improvement
	BetterHigher = "higher" // bandwidth-like: larger is an improvement
	// An empty Better marks an informational metric (model divergence,
	// configuration echoes, host times): tracked and plotted, never gated.
)

// Record is one stored measurement of one metric.
type Record struct {
	Schema int    `json:"schema"`
	Seq    int    `json:"seq"`              // 1-based append order, assigned by the store
	Commit string `json:"commit,omitempty"` // PR / commit label the value was measured at
	Source string `json:"source"`           // producing bench: repro, pack, critpath, load
	Metric string `json:"metric"`           // dotted key, e.g. "critpath.msg4M_rails1_memcpy2d.wall_us"
	Unit   string `json:"unit,omitempty"`   // us, ns, MB/s, points
	Better string `json:"better,omitempty"` // BetterLower, BetterHigher or "" (informational)

	Value float64 `json:"value"`
}

// Store is an in-memory view of one JSON-lines file plus the append
// handle to extend it.
type Store struct {
	path string
	recs []Record
}

// Open loads the store at path. A missing file yields an empty store
// whose first Append creates it.
func Open(path string) (*Store, error) {
	s := &Store{path: path}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("store: %s:%d: %w", path, line, err)
		}
		if r.Schema > SchemaVersion {
			return nil, fmt.Errorf("store: %s:%d: schema %d is newer than supported %d",
				path, line, r.Schema, SchemaVersion)
		}
		if r.Metric == "" {
			return nil, fmt.Errorf("store: %s:%d: record has no metric key", path, line)
		}
		s.recs = append(s.recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	return s, nil
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of loaded records.
func (s *Store) Len() int { return len(s.recs) }

// Records returns all records in append order.
func (s *Store) Records() []Record { return append([]Record(nil), s.recs...) }

// encode renders one record as its canonical store line.
func encode(r Record) ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Append stamps schema and sequence numbers onto the records and appends
// them to both the file and the in-memory view. The write is a single
// O_APPEND operation, so concurrent appenders from separate bench
// commands interleave at record granularity, never inside one.
func (s *Store) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	next := 0
	for _, r := range s.recs {
		if r.Seq > next {
			next = r.Seq
		}
	}
	var buf []byte
	stamped := make([]Record, 0, len(recs))
	for _, r := range recs {
		next++
		r.Schema = SchemaVersion
		r.Seq = next
		line, err := encode(r)
		if err != nil {
			return fmt.Errorf("store: encode %s: %w", r.Metric, err)
		}
		buf = append(buf, line...)
		stamped = append(stamped, r)
	}
	if err := ensureDir(s.path); err != nil {
		return fmt.Errorf("store: append %s: %w", s.path, err)
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: append %s: %w", s.path, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: append %s: %w", s.path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: append %s: %w", s.path, err)
	}
	s.recs = append(s.recs, stamped...)
	return nil
}

// AppendBench is the one way a bench document enters a store: it
// extracts the document's metrics (Extract), stamps each with commit,
// appends them to the store at path, creating the file if needed, and
// reports the append on w.
func AppendBench(w io.Writer, path, commit string, benchDoc []byte) error {
	st, err := Open(path)
	if err != nil {
		return err
	}
	source, recs, err := Extract(benchDoc)
	if err != nil {
		return err
	}
	for i := range recs {
		recs[i].Commit = commit
	}
	if err := st.Append(recs...); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Perf store: appended %d %s metric(s) to %s\n", len(recs), source, path)
	return err
}

// Seed truncates the file and writes the records fresh with sequence
// numbers starting at 1 — the one non-append operation, used to
// regenerate the committed seed store from committed BENCH files.
func (s *Store) Seed(recs []Record) error {
	if err := ensureDir(s.path); err != nil {
		return fmt.Errorf("store: seed %s: %w", s.path, err)
	}
	if err := os.WriteFile(s.path, nil, 0o644); err != nil {
		return fmt.Errorf("store: seed %s: %w", s.path, err)
	}
	s.recs = nil
	return s.Append(recs...)
}

// ensureDir creates the store file's parent directory if needed.
func ensureDir(path string) error {
	dir := filepath.Dir(path)
	if dir == "." || dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

// Metrics returns the distinct metric keys, sorted.
func (s *Store) Metrics() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s.recs {
		if !seen[r.Metric] {
			seen[r.Metric] = true
			out = append(out, r.Metric)
		}
	}
	sort.Strings(out)
	return out
}

// Trajectory returns the metric's records in append (Seq) order.
func (s *Store) Trajectory(metric string) []Record {
	var out []Record
	for _, r := range s.recs {
		if r.Metric == metric {
			out = append(out, r)
		}
	}
	return out
}

// Latest returns the most recently appended record for the metric.
func (s *Store) Latest(metric string) (Record, bool) {
	tr := s.Trajectory(metric)
	if len(tr) == 0 {
		return Record{}, false
	}
	return tr[len(tr)-1], true
}

// Best returns the best-so-far record for the metric under its Better
// direction. For informational metrics (no direction) it returns the
// latest record.
func (s *Store) Best(metric string) (Record, bool) {
	tr := s.Trajectory(metric)
	if len(tr) == 0 {
		return Record{}, false
	}
	best := tr[0]
	for _, r := range tr[1:] {
		if improves(r, best) {
			best = r
		}
	}
	if best.Better == "" {
		return tr[len(tr)-1], true
	}
	return best, true
}

// improves reports whether r beats cur under r's direction.
func improves(r, cur Record) bool {
	switch r.Better {
	case BetterLower:
		return r.Value < cur.Value
	case BetterHigher:
		return r.Value > cur.Value
	}
	return false
}

// GateResult is the verdict of one trajectory gate check.
type GateResult struct {
	Metric        string  `json:"metric"`
	Value         float64 `json:"value"`
	Baseline      float64 `json:"baseline"`       // best-so-far the value was held against
	BaselineSeq   int     `json:"baseline_seq"`   // Seq of the baseline record (0 = none)
	RegressionPct float64 `json:"regression_pct"` // positive = worse than baseline
	TolerancePct  float64 `json:"tolerance_pct"`
	OK            bool    `json:"ok"`
	Reason        string  `json:"reason"`
}

// Gate checks a candidate value for a metric against the recorded
// trajectory: it fails when the value is more than tolerancePct percent
// worse than the best-so-far record, under the direction stored with the
// trajectory. Metrics with no history, or whose trajectory is
// informational (no direction), pass with an explanatory reason — a
// brand-new metric must be appendable before it can be gated.
func (s *Store) Gate(metric string, value, tolerancePct float64) GateResult {
	g := GateResult{Metric: metric, Value: value, TolerancePct: tolerancePct, OK: true}
	best, ok := s.Best(metric)
	if !ok {
		g.Reason = "no recorded history"
		return g
	}
	g.Baseline = best.Value
	g.BaselineSeq = best.Seq
	if best.Better == "" {
		g.Reason = "informational metric (no direction)"
		return g
	}
	g.RegressionPct = regressionPct(best.Better, value, best.Value)
	if g.RegressionPct > tolerancePct {
		g.OK = false
		g.Reason = fmt.Sprintf("%.2f%% worse than best-so-far %g (seq %d), tolerance %g%%",
			g.RegressionPct, best.Value, best.Seq, tolerancePct)
		return g
	}
	g.Reason = fmt.Sprintf("within %g%% of best-so-far %g (seq %d)", tolerancePct, best.Value, best.Seq)
	return g
}

// GateTail gates each metric's latest record against the best of its
// earlier records — the self-check that catches a regression already
// appended to the store. Metrics with fewer than two records pass.
func (s *Store) GateTail(tolerancePct float64) []GateResult {
	var out []GateResult
	for _, m := range s.Metrics() {
		tr := s.Trajectory(m)
		last := tr[len(tr)-1]
		g := GateResult{Metric: m, Value: last.Value, TolerancePct: tolerancePct, OK: true}
		if len(tr) < 2 {
			g.Reason = "single record, nothing earlier to gate against"
			out = append(out, g)
			continue
		}
		if last.Better == "" {
			g.Reason = "informational metric (no direction)"
			out = append(out, g)
			continue
		}
		best := tr[0]
		for _, r := range tr[1 : len(tr)-1] {
			if improves(r, best) {
				best = r
			}
		}
		g.Baseline = best.Value
		g.BaselineSeq = best.Seq
		g.RegressionPct = regressionPct(last.Better, last.Value, best.Value)
		if g.RegressionPct > tolerancePct {
			g.OK = false
			g.Reason = fmt.Sprintf("latest (seq %d) is %.2f%% worse than best-so-far %g (seq %d), tolerance %g%%",
				last.Seq, g.RegressionPct, best.Value, best.Seq, tolerancePct)
		} else {
			g.Reason = fmt.Sprintf("within %g%% of best-so-far %g (seq %d)", tolerancePct, best.Value, best.Seq)
		}
		out = append(out, g)
	}
	return out
}

// regressionPct computes how much worse value is than baseline, in
// percent, under the given direction. Negative values are improvements.
func regressionPct(better string, value, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	switch better {
	case BetterLower:
		return 100 * (value - baseline) / baseline
	case BetterHigher:
		return 100 * (baseline - value) / baseline
	}
	return 0
}
