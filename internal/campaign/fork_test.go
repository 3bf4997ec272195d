package campaign

import (
	"bytes"
	"testing"
	"time"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/obs"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
)

// reportBytes renders a report's committed JSON form, the byte-identity
// currency the fast-vs-exact and record round-trip gates trade in.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multiCycleOptions builds a campaign whose universe spreads over
// several distinct injection cycles, so forking has real prefixes to
// skip and real gaps to replay.
func multiCycleOptions(mesh topology.Mesh, nFaults int, seed uint64, cycles []int64, post, drain, epoch int64) Options {
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, nFaults, seed, cycles[0])
	for i := range faults {
		faults[i].Cycle = cycles[i%len(cycles)]
	}
	return Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   cycles[0],
		PostInjectRun: post,
		DrainDeadline: drain,
		Forever:       forever.Options{Epoch: epoch, HopLatency: 1},
		Faults:        faults,
		Workers:       1,
	}
}

// TestForkByteIdentity is the acceptance gate for injection-point
// forking: the fast engine's warm-started campaign must produce the
// exact WriteJSON bytes of the same campaign on the exact engine
// (selected here through its DisableFork alias), which re-simulates
// every [0, injection) prefix from cycle 0 — over a multi-cycle
// universe so forks genuinely skip prefixes. The 8×8 counterpart is
// the exact-identity make target.
func TestForkByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cases := []struct {
		name   string
		mesh   topology.Mesh
		faults int
		cycles []int64
	}{
		{"4x4", topology.NewMesh(4, 4), 48, []int64{150, 400, 650}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on := multiCycleOptions(tc.mesh, tc.faults, 7, tc.cycles, 200, 2500, 300)
			onRep, err := Run(on)
			if err != nil {
				t.Fatal(err)
			}
			off := multiCycleOptions(tc.mesh, tc.faults, 7, tc.cycles, 200, 2500, 300)
			off.DisableFork = true
			offRep, err := Run(off)
			if err != nil {
				t.Fatal(err)
			}
			if onRep.ForkedRuns == 0 {
				t.Fatal("no run warm-started above cycle 0; the multi-cycle premise is broken")
			}
			if offRep.ForkedRuns != 0 {
				t.Fatalf("ForkedRuns = %d on the exact engine, want 0", offRep.ForkedRuns)
			}
			if onRep.WarmstartCyclesSaved == 0 {
				t.Fatal("forked campaign reports zero warm-start savings")
			}
			if got, want := reportBytes(t, onRep), reportBytes(t, offRep); !bytes.Equal(got, want) {
				t.Fatalf("reports differ between the forked and exact engines (%d vs %d bytes)", len(got), len(want))
			}
			t.Logf("%s: %d/%d runs forked, %d prefix cycles skipped, %d snapshots (%d bytes)",
				tc.name, onRep.ForkedRuns, len(onRep.Results), onRep.WarmstartCyclesSaved,
				onRep.SnapshotCount, onRep.SnapshotBytes)
		})
	}
}

// TestManyInjectionCyclesForkWithoutReplay spreads a universe over more
// distinct injection cycles than a few dozen snapshots would cover. The
// fast engine must still snapshot every one of them, so no fork replays
// (no fork_verify event, and every run skips exactly its own prefix),
// and its report must stay byte-identical to the exact engine's, whose
// runs all replay from cycle 0.
func TestManyInjectionCyclesForkWithoutReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cycles := make([]int64, 40)
	for i := range cycles {
		cycles[i] = 100 + 10*int64(i)
	}
	const ringCap = 4096
	run := func(exact bool) (*Report, []obs.Event) {
		o := multiCycleOptions(topology.NewMesh(4, 4), 80, 7, cycles, 200, 2500, 300)
		o.DisableFastPath = exact
		o.FlightRecorder = obs.NewFlightRecorder(ringCap, nil)
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		evs := o.FlightRecorder.Events()
		if len(evs) >= ringCap {
			t.Fatalf("flight recorder wrapped (%d events); the fork_verify count is incomplete", len(evs))
		}
		return rep, evs
	}
	forkVerifies := func(evs []obs.Event) int {
		k := 0
		for _, ev := range evs {
			if ev.Kind == "fork_verify" {
				k++
			}
		}
		return k
	}

	fast, fastEvs := run(false)
	exact, exactEvs := run(true)
	if fast.SnapshotCount != len(cycles) {
		t.Errorf("fast SnapshotCount = %d, want one per distinct injection cycle (%d)", fast.SnapshotCount, len(cycles))
	}
	if k := forkVerifies(fastEvs); k != 0 {
		t.Errorf("fast engine recorded %d fork_verify events; its forks must not replay", k)
	}
	var prefixes int64
	for _, r := range fast.Results {
		prefixes += r.Fault.Cycle
	}
	if fast.WarmstartCyclesSaved != prefixes {
		t.Errorf("fast WarmstartCyclesSaved = %d, want the sum of injection cycles %d", fast.WarmstartCyclesSaved, prefixes)
	}
	// Premise: the recorder does see fork verification when forks replay.
	if exact.SnapshotCount != 1 || forkVerifies(exactEvs) != len(exact.Results) {
		t.Errorf("exact engine: %d snapshots and %d fork_verify events, want 1 and %d",
			exact.SnapshotCount, forkVerifies(exactEvs), len(exact.Results))
	}
	if got, want := reportBytes(t, fast), reportBytes(t, exact); !bytes.Equal(got, want) {
		t.Fatalf("fast and exact reports differ (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSnapshotRestoreLockstep proves a restored snapshot is the golden
// state: a clone captured mid-run must stay fingerprint-lockstep with
// the original for 100 cycles of further simulation.
func TestSnapshotRestoreLockstep(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	n, err := sim.New(sim.Config{Router: rc, InjectionRate: 0.15, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachMonitor(forever.NewMonitor(n.RouterConfig(), forever.Options{Epoch: 50, HopLatency: 1}))
	n.Run(137) // an off-boundary capture point, mid-traffic

	restored := n.CloneInto(nil, nil)
	if got, want := restored.Fingerprint(), n.Fingerprint(); got != want {
		t.Fatalf("restored fingerprint %x differs from golden %x at the capture cycle", got, want)
	}
	for i := 0; i < 100; i++ {
		n.Step()
		restored.Step()
		if got, want := restored.Fingerprint(), n.Fingerprint(); got != want {
			t.Fatalf("restored network diverged from golden at cycle %d: %x vs %x", n.Cycle(), got, want)
		}
	}
}

// TestMultiCycleRecordRoundTrip closes the record loop for mixed
// injection cycles: a multi-cycle campaign's NDJSON records must
// rebuild into the exact report bytes of the live run, which is what
// lets sharded multi-cycle campaigns merge bit-identically.
func TestMultiCycleRecordRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   100,
		InjectCycles:  []int64{100, 250, 420},
		PostInjectRun: 200,
		DrainDeadline: 2500,
		Epoch:         300,
		HopLatency:    1,
		NumFaults:     30,
	}
	opts := spec.Options()
	opts.Faults = spec.Universe()
	opts.Workers = 1
	var recs []trace.RunRecord
	opts.OnResult = func(i int, res *RunResult, wall time.Duration, exit ExitPath) {
		recs = append(recs, RecordFor(i, res, wall, exit == ExitFastPath))
	}
	liveRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ReportFromRecords(spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, rebuilt), reportBytes(t, liveRep); !bytes.Equal(got, want) {
		t.Fatalf("rebuilt multi-cycle report differs from the live run (%d vs %d bytes)", len(got), len(want))
	}
	seen := map[int64]bool{}
	for _, r := range liveRep.Results {
		seen[r.Fault.Cycle] = true
	}
	for _, c := range spec.InjectCycles {
		if !seen[c] {
			t.Fatalf("no fault injected at cycle %d; round-robin restamping is broken", c)
		}
	}
}
