package core

import (
	"fmt"
	"sort"
	"strings"

	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// PipelineTrace records per-chunk stage completions of one rendezvous
// transfer — the executable form of the paper's Figure 3 pipeline diagram.
// Pass one in cluster.Config.Tracers before a transfer; each stage that
// finishes appends an event.
//
// PipelineTrace is a thin obs.Tracer: it listens for the five
// pipeline-stage task kinds emitted by the transport and ignores
// everything else.
//
// Stages, in data-flow order:
//
//	pack    D2D nc2c   (sender device copy engine)
//	d2h     D2H c2c    (sender PCIe)
//	rdma    RDMA write (wire, local completion)
//	h2d     H2D c2c    (receiver PCIe)
//	unpack  D2D c2nc   (receiver device copy engine)
type PipelineTrace struct {
	Events []StageEvent
}

// StageEvent is one stage completion.
type StageEvent struct {
	Stage string
	Chunk int
	At    sim.Time
}

// stageOfKind maps the transport's task kinds to the trace's stage names.
var stageOfKind = map[string]string{
	obs.KindPack:   "pack",
	obs.KindD2H:    "d2h",
	obs.KindRDMA:   "rdma",
	obs.KindH2D:    "h2d",
	obs.KindUnpack: "unpack",
}

// TaskStart implements obs.Tracer; stage completions are what matter.
func (t *PipelineTrace) TaskStart(obs.Task) {}

// TaskStep implements obs.Tracer.
func (t *PipelineTrace) TaskStep(obs.Task, string) {}

// TaskEnd records the completion of a pipeline-stage task. Only the five
// chunked stage kinds on rank-owned tracks are kept: the ib layer reuses
// the rdma_write kind for its own link tasks (on "hcaN.*" tracks, now
// chunk-tagged for the critical-path analyzer), so the track prefix is the
// transport-task discriminator.
func (t *PipelineTrace) TaskEnd(task obs.Task) {
	if t == nil {
		return
	}
	if stage, ok := stageOfKind[task.Kind]; ok && task.Chunk >= 0 && strings.HasPrefix(task.Where, "rank") {
		t.Events = append(t.Events, StageEvent{stage, task.Chunk, task.End})
	}
}

// CounterSample implements obs.Tracer.
func (t *PipelineTrace) CounterSample(string, sim.Time, float64) {}

// Completions returns the completion times of one stage indexed by chunk.
func (t *PipelineTrace) Completions(stage string) map[int]sim.Time {
	out := map[int]sim.Time{}
	for _, ev := range t.Events {
		if ev.Stage == stage {
			out[ev.Chunk] = ev.At
		}
	}
	return out
}

// Overlapped reports whether the trace shows true pipelining: some chunk's
// later stage completed while an earlier stage of a later chunk was still
// to come — concretely, the last pack completion is later than the first
// RDMA completion (packing continued while data was already on the wire).
func (t *PipelineTrace) Overlapped() bool {
	packs := t.Completions("pack")
	rdmas := t.Completions("rdma")
	if len(packs) < 2 || len(rdmas) == 0 {
		return false
	}
	var lastPack, firstRDMA sim.Time
	first := true
	for _, at := range packs {
		if at > lastPack {
			lastPack = at
		}
	}
	for _, at := range rdmas {
		if first || at < firstRDMA {
			firstRDMA = at
			first = false
		}
	}
	return lastPack > firstRDMA
}

// String renders the trace as a per-chunk table of stage completion times
// in microseconds — a textual Figure 3.
func (t *PipelineTrace) String() string {
	stages := []string{"pack", "d2h", "rdma", "h2d", "unpack"}
	byStage := map[string]map[int]sim.Time{}
	chunkSet := map[int]bool{}
	for _, s := range stages {
		byStage[s] = t.Completions(s)
		for c := range byStage[s] {
			chunkSet[c] = true
		}
	}
	chunks := make([]int, 0, len(chunkSet))
	for c := range chunkSet {
		chunks = append(chunks, c)
	}
	sort.Ints(chunks)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s", "chunk")
	for _, s := range stages {
		fmt.Fprintf(&sb, "%12s", s)
	}
	sb.WriteByte('\n')
	for _, c := range chunks {
		fmt.Fprintf(&sb, "%-6d", c)
		for _, s := range stages {
			if at, ok := byStage[s][c]; ok {
				fmt.Fprintf(&sb, "%10.1fus", at.Micros())
			} else {
				fmt.Fprintf(&sb, "%12s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
