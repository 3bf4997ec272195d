package campaign

import (
	"fmt"
	"sort"

	"nocalert/internal/fault"
	"nocalert/internal/sim"
)

// snapshotBudget caps how many golden snapshots the adaptive planner
// records. A few dozen full-state copies of an 8×8 mesh are a few MB —
// cheap next to the prefix cycles they save — while keeping
// pathological universes (hundreds of distinct injection cycles) from
// hoarding memory.
const snapshotBudget = 32

// snapshot is one golden ring entry: the complete network state at
// cycle — every register, buffer, latch, NI queue, RNG stream and
// cloneable monitor — captured with CloneInto so the copy is a
// preallocated, arena-backed network like the workers' own fork
// targets.
type snapshot struct {
	cycle int64
	net   *sim.Network
}

// snapshotRing holds the golden run's periodic full-state snapshots,
// keyed by cycle, ascending. Faulty runs fork from the nearest entry at
// or before their injection cycle and fast-replay the gap.
type snapshotRing struct {
	snaps []snapshot
	bytes int64
}

// capture records the golden network's state at its current cycle.
func (r *snapshotRing) capture(n *sim.Network) {
	c := n.CloneInto(nil, nil)
	r.snaps = append(r.snaps, snapshot{cycle: n.Cycle(), net: c})
	r.bytes += c.ApproxFootprintBytes()
}

// at returns the nearest snapshot at or before cycle, or nil.
func (r *snapshotRing) at(cycle int64) *snapshot {
	i := sort.Search(len(r.snaps), func(i int) bool { return r.snaps[i].cycle > cycle }) - 1
	if i < 0 {
		return nil
	}
	return &r.snaps[i]
}

// planSnapshots returns the ascending cycles the golden run snapshots
// at. cycles is the campaign's distinct injection cycles, ascending.
//
//   - Exact engine: a single snapshot at cycle 0, so every run
//     honestly replays its full [0, injection) prefix.
//   - Fast engine: the distinct injection cycles themselves when they
//     fit the budget, so every fork replays zero cycles; otherwise
//     equal-fault-weight buckets over the universe's injection-cycle
//     histogram, so each snapshot amortizes over the same number of
//     runs.
func planSnapshots(o *Options, cycles []int64) []int64 {
	if o.exact() {
		return []int64{0}
	}
	if len(cycles) <= snapshotBudget {
		return append([]int64(nil), cycles...)
	}
	// Equal-fault-weight bucketing: sort one representative fault per
	// group by injection cycle and snapshot at every bucket boundary.
	scratch := make([]fault.Fault, len(o.FaultGroups))
	for i, g := range o.FaultGroups {
		scratch[i] = g[0]
	}
	fault.SortByCycle(scratch)
	per := (len(scratch) + snapshotBudget - 1) / snapshotBudget
	plan := make([]int64, 0, snapshotBudget)
	for i := 0; i < len(scratch); i += per {
		c := scratch[i].Cycle
		if len(plan) == 0 || plan[len(plan)-1] != c {
			plan = append(plan, c)
		}
	}
	return plan
}

// fork rebuilds the network state at gc.cycle inside the worker's
// reusable clone target: restore the nearest golden snapshot at or
// before the injection cycle, fast-replay the gap fault-free with no
// checkers attached, verify the replayed state against the golden
// fingerprint recorded at the fork point, and only then arm the fault
// plane. A zero-length replay (snapshot exactly at the injection
// cycle) is bit-identical to forking straight off the warmed base.
func (w *worker) fork(gc *groupCtx, plane *fault.Plane, st *runStats, ro *runObs) (*sim.Network, error) {
	n := gc.snap.net.CloneInto(w.net, nil)
	w.net = n
	if n.Cycle() < gc.cycle {
		for n.Cycle() < gc.cycle {
			n.Step()
		}
		if n.Fingerprint() != gc.forkFP {
			detail := fmt.Sprintf("replay from snapshot %d diverged at cycle %d", gc.snap.cycle, gc.cycle)
			ro.anomaly("fork fingerprint mismatch", "fork_verify", gc.cycle, detail)
			return nil, fmt.Errorf("campaign: fork replay from snapshot %d diverged from the golden state at cycle %d",
				gc.snap.cycle, gc.cycle)
		}
		ro.event("fork_verify", gc.cycle, "ok", map[string]any{"snapshot_cycle": gc.snap.cycle})
		// Replay ejections all happened strictly before the injection
		// cycle; drop them so the log keeps the post-injection-only
		// contract every fork-point comparison relies on.
		n.ResetEjections()
	}
	n.SetPlane(plane)
	st.warmSaved = gc.snap.cycle
	st.forked = gc.snap.cycle > 0
	return n, nil
}
