package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// goldenOptions builds the golden-fixture campaign (GoldenSpec) as live
// Options with its full 96-fault universe.
func goldenOptions(t *testing.T) Options {
	t.Helper()
	spec := GoldenSpec()
	opts := spec.Options()
	opts.Faults = spec.Universe()
	return opts
}

// TestReconvergenceByteIdentity runs the golden-fixture campaign on
// the fast engine, which ends masked runs at reconvergence, and on the
// exact engine, selected here through its DisableReconvergence alias,
// and requires the two aggregated JSON reports to be byte-for-byte
// identical — the acceptance bar for the optimization: reconvergence
// may only change how fast a result is computed, never the result.
func TestReconvergenceByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	withRep, err := Run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	off := goldenOptions(t)
	off.DisableReconvergence = true
	withoutRep, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}

	if withoutRep.ReconvergedHits != 0 {
		t.Fatalf("ReconvergedHits = %d on the exact engine, want 0", withoutRep.ReconvergedHits)
	}
	if withRep.ReconvergedHits == 0 {
		t.Fatal("golden-fixture campaign produced no reconverged runs; the test premise (masked faults washing out mid-window) is broken")
	}
	if withoutRep.FastPathHits != 0 {
		t.Fatalf("FastPathHits = %d on the exact engine, want 0", withoutRep.FastPathHits)
	}

	var with, without bytes.Buffer
	if err := withRep.WriteJSON(&with); err != nil {
		t.Fatal(err)
	}
	if err := withoutRep.WriteJSON(&without); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(with.Bytes(), without.Bytes()) {
		t.Fatalf("reports differ between the fast and exact engines (%d vs %d bytes)", with.Len(), without.Len())
	}
	t.Logf("reconverged runs: %d of %d (fast-path: %d)", withRep.ReconvergedHits, len(withRep.Results), withRep.FastPathHits)
}

// TestReconvergedResultsMatchFullSimulation cross-checks every
// individual result field (not just the aggregated JSON) of the
// golden-fixture campaign between the fast engine, whose masked faults
// reconverge mid window, and the exact engine's full simulation.
func TestReconvergedResultsMatchFullSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	fastRep, err := Run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.ReconvergedHits == 0 {
		t.Fatal("golden-fixture campaign produced no reconverged runs; the test premise (masked faults washing out mid-window) is broken")
	}
	off := goldenOptions(t)
	off.DisableFastPath = true
	slowRep, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fastRep.Results {
		// Verdict.Reasons order follows map iteration; everything else
		// must match exactly.
		fr, sr := fastRep.Results[i], slowRep.Results[i]
		if len(fr.Verdict.Reasons) != len(sr.Verdict.Reasons) {
			t.Fatalf("result %d reason count differs: %d vs %d", i, len(fr.Verdict.Reasons), len(sr.Verdict.Reasons))
		}
		fr.Verdict.Reasons, sr.Verdict.Reasons = nil, nil
		if !reflect.DeepEqual(fr, sr) {
			t.Fatalf("result %d (%v) differs between reconvergence and full simulation:\nreconv: %+v\nfull:   %+v",
				i, &fr.Fault, fr, sr)
		}
	}
}

// TestDisableForeverKeepsNoCAlertResults runs the golden-fixture
// campaign with and without the ForEVeR baseline and requires the
// NoCAlert, Cautious and golden-reference fields to be unaffected —
// the guard for finishRun skipping the epoch-horizon run-out when no
// monitor is attached and the drain succeeded.
func TestDisableForeverKeepsNoCAlertResults(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	withRep, err := Run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	off := goldenOptions(t)
	off.DisableForever = true
	withoutRep, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	for i := range withRep.Results {
		wr, nr := withRep.Results[i], withoutRep.Results[i]
		if nr.ForeverDetected || nr.ForeverLatency != -1 {
			t.Fatalf("result %d reports a ForEVeR detection with the baseline disabled: %+v", i, nr)
		}
		if wr.Fired != nr.Fired || wr.Drained != nr.Drained ||
			wr.Detected != nr.Detected || wr.DetectCycle != nr.DetectCycle ||
			wr.Latency != nr.Latency || wr.Outcome != nr.Outcome ||
			wr.CautiousDetected != nr.CautiousDetected ||
			wr.CautiousLatency != nr.CautiousLatency ||
			wr.CautiousOutcome != nr.CautiousOutcome {
			t.Fatalf("result %d NoCAlert fields differ with ForEVeR disabled:\nwith:    %+v\nwithout: %+v", i, wr, nr)
		}
		wv, nv := wr.Verdict, nr.Verdict
		wv.Reasons, nv.Reasons = nil, nil
		if !reflect.DeepEqual(wv, nv) {
			t.Fatalf("result %d verdict differs with ForEVeR disabled:\nwith:    %+v\nwithout: %+v", i, wv, nv)
		}
	}
}

// TestQuiescentVsInert pins the fault-plane predicate the reconvergence
// gate relies on: a fired transient is quiescent (it can never fire
// again) but not inert (it did fire), while a permanent fault is never
// quiescent.
func TestQuiescentVsInert(t *testing.T) {
	params := fault.Params{Mesh: topology.NewMesh(2, 2), VCs: 2, BufDepth: 4}
	site := params.EnumerateSites()[0]
	tr := fault.Fault{Site: site, Bit: 0, Cycle: 10, Type: fault.Transient}
	pm := fault.Fault{Site: site, Bit: 0, Cycle: 10, Type: fault.Permanent}

	p := fault.NewPlane(tr)
	if p.Quiescent(10) {
		t.Fatal("transient fault quiescent at its injection cycle")
	}
	if !p.Quiescent(11) {
		t.Fatal("expired transient fault not quiescent")
	}
	if !fault.NewPlane().Quiescent(0) {
		t.Fatal("empty plane not quiescent")
	}
	if fault.NewPlane(pm).Quiescent(1 << 40) {
		t.Fatal("permanent fault reported quiescent")
	}
}

// TestReconvergenceOffGoldenPathUnchanged checks that the golden run's
// recording window (fast engine) and its plain loop (exact engine, no
// reconvergence) agree on the golden-run aggregates the report exposes.
func TestReconvergenceOffGoldenPathUnchanged(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	opts := Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.1, Seed: 5},
		InjectCycle:   100,
		PostInjectRun: 200,
		DrainDeadline: 2500,
		Forever:       forever.Options{Epoch: 250, HopLatency: 1},
		Faults:        SampleFaults(params, 4, 11, 100),
		Workers:       1,
	}
	onRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableFastPath = true
	offRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if onRep.GoldenEjections != offRep.GoldenEjections ||
		onRep.GoldenForeverFalsePositive != offRep.GoldenForeverFalsePositive {
		t.Fatalf("golden-run aggregates differ: with reconvergence {%d %v}, without {%d %v}",
			onRep.GoldenEjections, onRep.GoldenForeverFalsePositive,
			offRep.GoldenEjections, offRep.GoldenForeverFalsePositive)
	}
}
