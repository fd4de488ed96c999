#!/bin/sh
# check.sh is the tier-1 verify gate: formatting, build, vet, the custom
# mv2lint analyzers, and the test suite under the race detector. CI runs
# exactly this script; run it locally before pushing.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
# Analyzer testdata is excluded: those trees are fixtures, not sources.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:"
    echo "$unformatted"
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== mv2lint"
# Test files are linted too (-tests): a deliberate literal in a test is a
# named const with its reason. The JSON report is written even on a clean run so CI always has an
# artifact; set MV2LINT_JSON/MV2LINT_SARIF to keep the reports, and under
# GitHub Actions findings double as inline annotations.
lint_json="${MV2LINT_JSON:-$(mktemp /tmp/mv2sim-lint.XXXXXX.json)}"
lint_flags="-json $lint_json"
if [ -n "${MV2LINT_SARIF:-}" ]; then
    lint_flags="$lint_flags -sarif $MV2LINT_SARIF"
fi
if [ -n "${GITHUB_ACTIONS:-}" ]; then
    lint_flags="$lint_flags -github"
fi
go run ./cmd/mv2lint -tests $lint_flags ./...
if [ -z "${MV2LINT_JSON:-}" ]; then
    rm -f "$lint_json"
fi

echo "== process gate"
# Only ranks are processes: hardware models and protocol helpers run as
# continuations on pooled records. Outside package sim, a non-test file
# under internal/ may spawn a process only in mpi's World.Launch (the
# rank bodies) and in the osu drivers.
stray=$(find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
    ! -path 'internal/sim/*' ! -path 'internal/osu/*' -print0 |
    xargs -0 awk '
        FNR == 1 { fn = "" }
        /^func / { fn = $0 }
        /^[[:space:]]*\/\// { next }
        /\.Spawn(At)?\(/ {
            if (!(FILENAME == "internal/mpi/mpi.go" && fn ~ /^func \(w \*World\) Launch\(/))
                print FILENAME ":" FNR ": " $0
        }')
if [ -n "$stray" ]; then
    echo "processes spawned outside the rank bodies and the osu drivers:"
    echo "$stray"
    exit 1
fi

echo "== go test -race"
go test -race ./...

echo "== recycler race gate"
# Freed simulated bytes go to one process-wide recycler (internal/mem),
# the only state clusters in one process share. Exercise it from several
# goroutines at once, repeatedly, under the race detector.
go test -race -count=10 -run 'Concurrent' ./internal/mem ./internal/cluster > /dev/null

echo "== benchmark module tests"
# benchmark/ is a Go module of its own, so ./... above does not reach it.
(cd benchmark && go test -race -short .)

echo "== race-mode benchmark smoke"
# Each benchmark body runs once under the race detector: catches data
# races in pipeline setup paths that the unit tests' smaller
# configurations miss. -benchtime 1x keeps it a smoke test, not a timing.
go test -race -short -run '^$' -bench . -benchtime 1x . > /dev/null

echo "== trace gate"
# One traced pipeline run must produce a valid, well-ordered Chrome trace.
tracefile="${TRACE_OUT:-$(mktemp /tmp/mv2sim-trace.XXXXXX.json)}"
go run ./cmd/pipetrace -chrome "$tracefile" > /dev/null
go run ./cmd/tracecheck "$tracefile"
if [ -z "${TRACE_OUT:-}" ]; then
    rm -f "$tracefile"
fi

echo "== pack-mode gate"
# -packmode memcpy2d must reproduce the pre-PackMode pipeline byte for
# byte (the committed golden), and the auto/kernel modes must emit valid,
# well-ordered traces.
pm=$(mktemp /tmp/mv2sim-packmode.XXXXXX.txt)
go run ./cmd/pipetrace -packmode memcpy2d > "$pm"
cmp "$pm" scripts/testdata/pipetrace_memcpy2d.golden || {
    echo "-packmode memcpy2d drifted from the golden pipeline output"; exit 1;
}
rm -f "$pm"
for mode in auto kernel nic; do
    mt=$(mktemp /tmp/mv2sim-packmode.XXXXXX.json)
    go run ./cmd/pipetrace -packmode "$mode" -chrome "$mt" > /dev/null
    go run ./cmd/tracecheck "$mt"
    rm -f "$mt"
done

echo "== nic pack-mode gate"
# The NIC-offloaded engine must stay byte-deterministic (two back-to-back
# runs produce identical traces, with the SGE gathers on the nicEngine
# track), and its shortened gather→wire→scatter pipeline must still
# satisfy the critical-path doctor's exact-attribution invariant
# (Sum()==Wall()). No -strict: pinning nic on a shape it loses is allowed
# to diverge from the model's happy path, exactness is not.
na=$(mktemp /tmp/mv2sim-nic.XXXXXX.json)
nb=$(mktemp /tmp/mv2sim-nic.XXXXXX.json)
go run ./cmd/pipetrace -packmode nic -chrome "$na" > /dev/null
go run ./cmd/pipetrace -packmode nic -chrome "$nb" > /dev/null
cmp "$na" "$nb" || { echo "-packmode nic trace not deterministic"; exit 1; }
grep -q 'nicEngine' "$na" || { echo "-packmode nic trace has no nicEngine track"; exit 1; }
rm -f "$na" "$nb"
go run ./cmd/pipedoctor -msg $((4<<20)) -packmode nic > /dev/null

echo "== multi-rail trace gate"
# The striped pipeline must stay deterministic and correctly named: at each
# rail count the trace must be well-ordered with dense per-rail tracks, and
# byte-identical across two back-to-back runs.
for rails in 2 4; do
    ra=$(mktemp /tmp/mv2sim-rails.XXXXXX.json)
    rb=$(mktemp /tmp/mv2sim-rails.XXXXXX.json)
    go run ./cmd/pipetrace -rails "$rails" -chrome "$ra" > /dev/null
    go run ./cmd/pipetrace -rails "$rails" -chrome "$rb" > /dev/null
    go run ./cmd/tracecheck "$ra"
    cmp "$ra" "$rb" || { echo "rails=$rails trace not deterministic"; exit 1; }
    rm -f "$ra" "$rb"
done

echo "== auto-pack trace validation gate"
# tracecheck's containment and per-track monotonicity checks over the
# striped auto-pack pipeline (rails=2, packmode=auto) — the configuration
# that exercises both the kernel pack engine and rail-suffixed tracks.
at=$(mktemp /tmp/mv2sim-autorails.XXXXXX.json)
go run ./cmd/pipetrace -rails 2 -packmode auto -chrome "$at" > /dev/null
go run ./cmd/tracecheck "$at"
rm -f "$at"

echo "== pipedoctor gate"
# The critical-path doctor on the Figure 5(b) 4 MB point (the pinned
# memcpy2d pipeline): the stall attribution must sum exactly to the wall
# clock, the flag state must be consistent with the measured divergence,
# and -strict fails the gate if the (n+2)*T(N/n) model diverges >10%.
pd="${PIPEDOCTOR_OUT:-$(mktemp /tmp/mv2sim-critpath.XXXXXX.json)}"
go run ./cmd/pipedoctor -msg $((4<<20)) -packmode memcpy2d -strict -bench "$pd" > /dev/null

echo "== critpath matrix gate"
# BENCH_critpath.json must be exactly what pipedoctor -matrix writes: the
# same records, values and order.
cm=$(mktemp /tmp/mv2sim-critmatrix.XXXXXX.json)
go run ./cmd/pipedoctor -matrix -bench "$cm" > /dev/null
cmp "$cm" BENCH_critpath.json || {
    echo "BENCH_critpath.json drifted: pipedoctor -matrix no longer reproduces it"; exit 1; }
rm -f "$cm"

echo "== repro bench gate"
# BENCH_repro.json — the Figure 5(b) curves and every other experiment's
# headline numbers — must be exactly what repro -bench writes.
rb=$(mktemp /tmp/mv2sim-repro.XXXXXX.json)
go run ./cmd/repro -bench "$rb" > /dev/null
cmp "$rb" BENCH_repro.json || {
    echo "BENCH_repro.json drifted: repro -bench no longer reproduces it"; exit 1; }
rm -f "$rb"

echo "== load harness gate"
# The open-loop load sweep must be byte-reproducible: regenerating
# BENCH_load.json with the committed default configuration (same seed →
# same arrival schedules → same virtual timeline) must match the
# committed file exactly. The file's knee/goodput/tail metrics are then
# gated against the recorded trajectory below.
lb=$(mktemp /tmp/mv2sim-load.XXXXXX.json)
go run ./cmd/loadgen -bench "$lb" > /dev/null
cmp "$lb" BENCH_load.json || {
    echo "BENCH_load.json drifted: loadgen defaults no longer reproduce the committed sweep"; exit 1; }

# The knee gate must actually bite: a synthetic saturation regression
# (knee collapsing to 1 MB/s) appended to a copy of the store must fail
# the self-gate, or the gate is dead code.
ls=$(mktemp /tmp/mv2sim-loadstore.XXXXXX.jsonl)
cp perf/store.jsonl "$ls"
printf '{"schema":1,"seq":99999,"commit":"synthetic","source":"load","metric":"load.poisson.knee_offered_mbs","unit":"MB/s","better":"higher","value":1}\n' >> "$ls"
if go run ./cmd/perfstore gate -store "$ls" -self -tol 5 > /dev/null 2>&1; then
    echo "synthetic knee regression passed the self-gate; the load gate is dead"; exit 1
fi
rm -f "$ls"

echo "== dashboard endpoint gate"
# Every dashboard JSON endpoint must stay byte-deterministic: snapshot
# the committed fixture trace + fixture store + committed load sweep (no
# HTTP involved) and diff each endpoint document against its committed
# golden. The fixture trace is a mixed-engine run (nic pack, auto unpack)
# so the goldens cover the nicEngine utilization row and the nic-queueing
# stall strip alongside the GPU stages; the load sweep exercises
# /api/load with a populated document. Regenerate after an intentional
# change with:
#   go run ./cmd/pipetrace -packmode nic -unpackmode auto \
#     -chrome scripts/testdata/dashboard_trace.json
#   go run ./cmd/dashboard -trace scripts/testdata/dashboard_trace.json \
#     -store scripts/testdata/dashboard_store.jsonl -load BENCH_load.json \
#     -snapshot scripts/testdata/dashboard_golden
dd=$(mktemp -d /tmp/mv2sim-dash.XXXXXX)
go run ./cmd/dashboard -trace scripts/testdata/dashboard_trace.json \
    -store scripts/testdata/dashboard_store.jsonl -load BENCH_load.json -snapshot "$dd" > /dev/null
for g in scripts/testdata/dashboard_golden/*.json; do
    cmp "$dd/$(basename "$g")" "$g" || {
        echo "dashboard endpoint $(basename "$g") drifted from its golden"; exit 1; }
done
rm -rf "$dd"

echo "== perf trajectory gate"
# The trajectory gates replace hand-pinned regression constants: virtual
# wall-clock, pack and critpath metrics are held to within 5% of the
# best value ever recorded in the append-only store.
#   self: the committed store's own tail — fails exactly when a
#         regression record has been appended to the trajectory.
#   candidate: the pipedoctor bench file from the gate above plus a
#         fresh pack-crossover sweep, gated against the recorded best.
out=$(go run ./cmd/perfstore gate -store perf/store.jsonl -self -tol 5) || {
    echo "$out" | grep '^FAIL' || true
    echo "stored trajectory tail regressed >5% against its own best"; exit 1; }
pc=$(mktemp /tmp/mv2sim-packcand.XXXXXX.json)
go run ./cmd/packbench -crossover -bench "$pc" > /dev/null
cmp "$pc" BENCH_pack.json || {
    echo "BENCH_pack.json drifted: packbench -crossover no longer reproduces it"; exit 1; }
out=$(go run ./cmd/perfstore gate -store perf/store.jsonl -tol 5 "$pd" "$pc" "$lb") || {
    echo "$out" | grep '^FAIL' || true
    echo "candidate bench metrics regressed >5% against the recorded trajectory"; exit 1; }
rm -f "$pc" "$lb"
if [ -z "${PIPEDOCTOR_OUT:-}" ]; then
    rm -f "$pd"
fi

echo "OK"
