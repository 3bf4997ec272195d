package campaign

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"nocalert/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate the testdata/golden_*.json fixtures")

const (
	goldenPath      = "../../testdata/golden_4x4_seed3.json"
	goldenPath8x8   = "../../testdata/golden_8x8_seed3.json"
	goldenPath16x16 = "../../testdata/golden_16x16_seed3.json"
)

// GoldenSpec is the campaign the committed fixture pins: the standard
// 4x4 test configuration with a 96-fault universe (24 per CI shard).
// The CI matrix runs exactly this spec as 4 shards and the merge step
// compares against the same fixture this test enforces.
func GoldenSpec() Spec {
	return Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Epoch:         400,
		HopLatency:    1,
		NumFaults:     96,
	}
}

// TestGoldenFixture4x4 regenerates the golden campaign and fails if
// any fault's verdict, outcome, latency or checker attribution drifted
// from the committed fixture. Run `make golden` (go test -run
// TestGoldenFixture -update-golden) after an intentional behaviour
// change and commit the diff.
func TestGoldenFixture4x4(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	got := NewFixture(spec, unshardedRecords(t, spec))

	if *updateGolden {
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", goldenPath, len(got.Records))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden fixture (run `make golden` to create it): %v", err)
	}
	golden, err := ReadFixture(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) drifted from the golden fixture; if intentional, run `make golden` and commit", len(diffs))
	}
}

// Golden8x8Spec is the paper-scale pinned campaign: the 8×8 mesh at
// the throughput benchmark's operating point. Its fixture is what the
// exact-identity CI gate and the 8×8 bench row both anchor to.
func Golden8x8Spec() Spec {
	return Spec{
		MeshW: 8, MeshH: 8, VCs: 4,
		InjectionRate: 0.05,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 500,
		DrainDeadline: 10000,
		Epoch:         1500,
		HopLatency:    1,
		NumFaults:     64,
	}
}

// TestGoldenFixture8x8 is TestGoldenFixture4x4 at paper scale.
func TestGoldenFixture8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden8x8Spec()
	got := NewFixture(spec, unshardedRecords(t, spec))

	if *updateGolden {
		f, err := os.Create(goldenPath8x8)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", goldenPath8x8, len(got.Records))
		return
	}

	data, err := os.ReadFile(goldenPath8x8)
	if err != nil {
		t.Fatalf("no golden fixture (run `make golden` to create it): %v", err)
	}
	golden, err := ReadFixture(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) drifted from the golden fixture; if intentional, run `make golden` and commit", len(diffs))
	}
}

// Golden16x16Spec is the scale-out pinned campaign: a 16×16 mesh at a
// low injection rate, matching the Makefile's BENCH_16X16_FLAGS row.
// Its fixture keeps the frontier engine honest on a mesh large enough
// that most routers stay outside the fault's cone of influence.
func Golden16x16Spec() Spec {
	return Spec{
		MeshW: 16, MeshH: 16, VCs: 4,
		InjectionRate: 0.02,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 500,
		DrainDeadline: 10000,
		Epoch:         1500,
		HopLatency:    1,
		NumFaults:     32,
	}
}

// TestGoldenFixture16x16 is TestGoldenFixture4x4 at 16×16 scale.
func TestGoldenFixture16x16(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden16x16Spec()
	got := NewFixture(spec, unshardedRecords(t, spec))

	if *updateGolden {
		f, err := os.Create(goldenPath16x16)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", goldenPath16x16, len(got.Records))
		return
	}

	data, err := os.ReadFile(goldenPath16x16)
	if err != nil {
		t.Fatalf("no golden fixture (run `make golden` to create it): %v", err)
	}
	golden, err := ReadFixture(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) drifted from the golden fixture; if intentional, run `make golden` and commit", len(diffs))
	}
}

// TestGoldenEngineIdentity runs the golden 4×4 campaign on the fast
// engine (SoA sweep) and on the exact engine, selected here through its
// Sim.DisableSoA alias (reference sweep), and requires record-for-record
// identical results: verdicts, outcomes, detection latencies and
// checker attributions must not move with the engine. This is the
// in-tree half of the exact-identity gate (the make target compares the
// CLI's whole JSON reports byte-for-byte on both mesh sizes).
func TestGoldenEngineIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	soa := NewFixture(spec, withoutFastPathFlag(unshardedRecords(t, spec)))

	opts := spec.Options()
	opts.Sim.DisableSoA = true
	ref := NewFixture(spec, exactRecords(t, opts, spec))

	if diffs := soa.Diff(ref); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) differ between the SoA and reference engines", len(diffs))
	}
}

// TestFrontierEngineIdentity is TestGoldenEngineIdentity for the
// divergence-frontier engine: the golden 4×4 campaign run with
// frontier delta stepping (the fast engine) must be record-for-record
// identical to the exact engine's full-mesh steps, selected here
// through its DisableFrontier alias.
func TestFrontierEngineIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	frontier := NewFixture(spec, withoutFastPathFlag(unshardedRecords(t, spec)))

	opts := spec.Options()
	opts.DisableFrontier = true
	full := NewFixture(spec, exactRecords(t, opts, spec))

	if diffs := frontier.Diff(full); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) differ between the frontier and full-mesh engines", len(diffs))
	}
}

// exactRecords runs spec's universe under opts, which must select the
// exact engine, and returns its per-fault records. The exact engine
// never takes the fast path, so no record may carry the fast_path exit
// flag; callers compare it against fast-engine records with that flag
// cleared (withoutFastPathFlag), every result field intact.
func exactRecords(t *testing.T, opts Options, spec Spec) []trace.RunRecord {
	t.Helper()
	opts.Faults = spec.Universe()
	recs := make([]trace.RunRecord, len(opts.Faults))
	opts.OnResult = func(i int, res *RunResult, wall time.Duration, exit ExitPath) {
		recs[i] = RecordFor(i, res, wall, exit == ExitFastPath)
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FrontierRuns != 0 || rep.FastPathHits != 0 {
		t.Fatalf("exact engine took a shortcut: frontier %d, fastpath %d", rep.FrontierRuns, rep.FastPathHits)
	}
	for i := range recs {
		if recs[i].FastPath {
			t.Fatalf("exact engine record %d carries the fast_path exit flag", i)
		}
	}
	return recs
}

// withoutFastPathFlag returns a copy of recs with the fast_path exit
// flag cleared: the flag names the fast engine's exit path, not a
// result, and is the one record field the exact engine never matches.
func withoutFastPathFlag(recs []trace.RunRecord) []trace.RunRecord {
	out := append([]trace.RunRecord(nil), recs...)
	for i := range out {
		out[i].FastPath = false
	}
	return out
}
