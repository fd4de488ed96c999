package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/routes.golden")

// routeConfig is one transport configuration of the rendezvous route
// table: the pack and unpack modes plus the GPUDirect and host-staged
// ablations.
type routeConfig struct {
	name         string
	pack, unpack core.PackMode
	gdr, staged  bool
}

var routeConfigs = []routeConfig{
	{name: "memcpy2d", pack: core.PackModeMemcpy2D, unpack: core.PackModeMemcpy2D},
	{name: "kernel", pack: core.PackModeKernel, unpack: core.PackModeKernel},
	{name: "auto", pack: core.PackModeAuto, unpack: core.PackModeAuto},
	{name: "nic", pack: core.PackModeNic, unpack: core.PackModeNic},
	{name: "nic/memcpy2d", pack: core.PackModeNic, unpack: core.PackModeMemcpy2D},
	{name: "memcpy2d/nic", pack: core.PackModeMemcpy2D, unpack: core.PackModeNic},
	{name: "gdr-memcpy2d", pack: core.PackModeMemcpy2D, unpack: core.PackModeMemcpy2D, gdr: true},
	{name: "gdr-kernel", pack: core.PackModeKernel, unpack: core.PackModeKernel, gdr: true},
	{name: "gdr-nic", pack: core.PackModeNic, unpack: core.PackModeNic, gdr: true},
	{name: "staged-memcpy2d", pack: core.PackModeMemcpy2D, unpack: core.PackModeMemcpy2D, staged: true},
	{name: "staged-nic", pack: core.PackModeNic, unpack: core.PackModeNic, staged: true},
}

// routeType builds one of the three datatype shapes of the route grid with
// the given packed size: contiguous bytes, 4-byte rows at pitch 16, and an
// irregular 16-byte indexed element no 2D copy can express.
func routeType(t *testing.T, kind string, size int) (*datatype.Datatype, int) {
	t.Helper()
	var dt *datatype.Datatype
	var err error
	var count int
	switch kind {
	case "contig":
		dt, count = datatype.Byte, size
	case "vector":
		dt, err = datatype.Vector(size/4, 4, 16, datatype.Byte)
		count = 1
	case "indexed":
		dt, err = datatype.Indexed([]int{3, 5, 8}, []int{0, 5, 14}, datatype.Byte)
		count = size / 16
	}
	if err != nil {
		t.Fatal(err)
	}
	if kind != "contig" {
		dt.MustCommit()
	}
	if got := dt.Size() * count; got != size {
		t.Fatalf("%s: packed size %d, want %d", kind, got, size)
	}
	return dt, count
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// runRoute sends one message of count dt from a device buffer on node 0 to
// one on node 1 under rc and rails, and returns its digest line. traced
// attaches a Chrome tracer and a critpath collector; untraced runs hash the
// engine's event firings instead, so both hub paths are pinned.
func runRoute(t *testing.T, rc routeConfig, rails int, dt *datatype.Datatype, count int, traced bool) string {
	t.Helper()
	chrome, col := obs.NewChromeTracer(), critpath.NewCollector()
	cfg := cluster.Config{Rails: rails, GPUDirect: rc.gdr}
	cfg.Core = core.Config{PackMode: rc.pack, UnpackMode: rc.unpack, HostStagedPack: rc.staged}
	if traced {
		cfg.Tracers = []obs.Tracer{chrome, col}
	}
	cl := cluster.New(cfg)
	log := sha256.New()
	if !traced {
		// Only the firing lines: which processes carry the pipeline is
		// not part of the schedule.
		cl.Engine.SetTracer(func(at sim.Time, msg string) {
			if strings.HasPrefix(msg, "event ") {
				fmt.Fprintf(log, "%d %s\n", at, msg)
			}
		})
	}
	span := dt.LB() + dt.Span(count)
	var recv string
	err := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		buf := n.Ctx.MustMalloc(span)
		if r.Rank() == 0 {
			fillDev(buf, span, 11)
			r.Send(buf, count, dt, 1, 0)
		} else {
			fillDev(buf, span, 200)
			r.Recv(buf, count, dt, 0, 0)
			recv = digest(buf.Bytes(span))
		}
		if err := n.Ctx.Free(buf); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatalf("simulation did not drain: %v", err)
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		t.Fatal(err)
	}
	e := cl.Engine
	line := fmt.Sprintf("buf=%s events=%d switches=%d now=%d", recv, e.Events(), e.Switches(), e.Now())
	if !traced {
		return line + " log=" + digest(log.Sum(nil))
	}
	as := col.Analyze()
	if len(as) != 1 {
		t.Fatalf("critpath found %d transfers, want 1", len(as))
	}
	for _, a := range as {
		if !a.Exact() {
			t.Errorf("critpath sum %v != wall %v", a.Sum(), a.Wall())
		}
	}
	return line + " trace=" + digest([]byte(chrome.JSON()))
}

// TestRendezvousRoutesPinned pins every sender and receiver route of the
// rendezvous pipeline — staged, GPUDirect, host-staged and NIC, each pack
// and unpack engine — at one and two rails over contiguous, vector and
// irregular types, at one chunk and at several chunks with a 400-byte tail
// (100 vector rows, below the kernel's tail crossover).
// Each run's line records the received buffer, the engine's event and
// switch counts and final time, and either the Chrome trace (traced run,
// whose critical path must also account for the whole wall time) or the
// engine's event firings (untraced run). Regenerate with -update only for a
// change that means to alter the schedule.
func TestRendezvousRoutesPinned(t *testing.T) {
	const oneChunk, multi = 48 << 10, 3*(64<<10) + 400
	var lines []string
	for _, rc := range routeConfigs {
		for _, rails := range []int{1, 2} {
			for _, kind := range []string{"contig", "vector", "indexed"} {
				for _, size := range []int{oneChunk, multi} {
					dt, count := routeType(t, kind, size)
					name := fmt.Sprintf("%s rails=%d %s %d", rc.name, rails, kind, size)
					lines = append(lines,
						name+" traced "+runRoute(t, rc, rails, dt, count, true),
						name+" untraced "+runRoute(t, rc, rails, dt, count, false))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "routes.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", golden, err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, l := range lines {
		if i >= len(wantLines) || l != wantLines[i] {
			t.Errorf("route drifted:\n got  %s\n want %s", l, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Errorf("routes differ from %s (%d lines there, %d here)", golden, len(wantLines), len(lines))
}
