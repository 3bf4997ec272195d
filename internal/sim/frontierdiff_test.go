package sim

import (
	"fmt"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// frontierLockstep is the differential gate for the divergence-frontier
// engine. It builds a golden network, runs it to the fork boundary,
// forks two faulty copies under clones of the same plane — one stepped
// as a full simulation, one driven by a Frontier over the golden
// transcript — then records the golden window and steps both faulty
// runs in lockstep. At every cycle boundary:
//
//   - a frontier member's per-node state fold must equal the reference
//     run's fold for the same node (the member is simulating live, so
//     it must track the full simulation exactly), and
//   - a node outside the frontier must, in the REFERENCE run, still
//     hold golden state (its fold equals the transcript's) — i.e. the
//     frontier never misses a divergence, which is the whole soundness
//     claim;
//
// plus the global counters must match. At window end the frontier run
// is materialized from the golden window-end state and must reach full
// fingerprint and ejection-log identity with the reference run.
func frontierLockstep(t *testing.T, w, h int, rate float64, seed uint64, plane *fault.Plane, fork, window int64) {
	t.Helper()
	cfg := Config{Router: router.Default(topology.NewMesh(w, h)), InjectionRate: rate, Seed: seed}
	gold := MustNew(cfg, nil)
	for gold.Cycle() < fork {
		gold.Step()
	}
	ref := gold.CloneInto(nil, plane.Clone())
	fn := gold.CloneInto(nil, plane.Clone())

	gold.StartRecording(int(window))
	for i := int64(0); i < window; i++ {
		gold.Step()
	}
	rec := gold.StopRecording()
	wend := gold.CloneInto(nil, nil)

	var seeds []int
	for _, ft := range plane.Faults() {
		seeds = append(seeds, ft.Site.Router)
	}
	fr := NewFrontier(fn, rec, seeds)

	for i := int64(0); i < window; i++ {
		ref.Step()
		fn.Step()
		tb := fork + i // the cycle just stepped
		for id := range fn.routers {
			if fr.inF[id] {
				if got, want := fn.nodeFold(id), ref.nodeFold(id); got != want {
					t.Fatalf("cycle %d node %d: frontier member diverged from reference (%#x vs %#x)", tb, id, got, want)
				}
			} else if got, want := ref.nodeFold(id), rec.foldAt(tb, id); got != want {
				t.Fatalf("cycle %d node %d: reference diverged from golden outside the frontier (%#x vs %#x) — missed join", tb, id, got, want)
			}
		}
		if fn.FlitsInjected() != ref.FlitsInjected() || fn.FlitsEjected() != ref.FlitsEjected() ||
			fn.NextPacketID() != ref.NextPacketID() || len(fn.Ejections()) != len(ref.Ejections()) {
			t.Fatalf("cycle %d: counters diverged (inj %d/%d, ej %d/%d, pkt %d/%d)", tb,
				fn.FlitsInjected(), ref.FlitsInjected(), fn.FlitsEjected(), ref.FlitsEjected(),
				fn.NextPacketID(), ref.NextPacketID())
		}
	}

	fr.MaterializeAll(wend)
	if got, want := fn.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("after materialization: fingerprints differ (%#x vs %#x), frontier peak %d", got, want, fr.Peak())
	}
	if !ejectionsEqual(fn.Ejections(), ref.Ejections()) {
		t.Fatal("frontier and reference runs produced different ejection logs")
	}
}

// TestFrontierLockstepUnderFaults pins the frontier engine against the
// full simulation under a fixed injected fault plane on both mesh
// sizes, with the fault window opening shortly after the fork.
func TestFrontierLockstepUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential test in -short mode")
	}
	for _, tc := range []struct {
		w, h int
		rate float64
	}{
		{4, 4, 0.12},
		{8, 8, 0.05},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.w, tc.h), func(t *testing.T) {
			p := fault.Params{Mesh: topology.NewMesh(tc.w, tc.h), VCs: 4, BufDepth: router.Default(topology.NewMesh(tc.w, tc.h)).BufDepth}
			g := rng.New(7, 1)
			plane := samplePlane(p, g, 8, 130)
			frontierLockstep(t, tc.w, tc.h, tc.rate, 3, plane, 120, 400)
		})
	}
}

// TestFrontierLockstepRandomPlanes fuzzes the frontier engine with
// seeded random fault planes — random sites, bits and temporal types —
// requiring the per-node fold identities and final fingerprint match on
// every iteration. Transient planes exercise retirement (the frontier
// shrinks back once the divergent wave washes out); permanent and
// intermittent planes exercise monotone growth and the missed-join
// detector.
func TestFrontierLockstepRandomPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style differential test in -short mode")
	}
	p := fault.Params{Mesh: topology.NewMesh(4, 4), VCs: 4, BufDepth: router.Default(topology.NewMesh(4, 4)).BufDepth}
	iters := 12
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("plane%02d", it), func(t *testing.T) {
			g := rng.New(uint64(300+it), 9)
			plane := samplePlane(p, g, 3+it%4, 45)
			frontierLockstep(t, 4, 4, 0.15, uint64(it)+11, plane, 40, 250)
		})
	}
}
