package campaign

import (
	"fmt"

	"nocalert/internal/fault"
	"nocalert/internal/sim"
)

// fork rebuilds the network state at gc.cycle inside the worker's
// reusable clone target: restore the golden snapshot gc.snap — the
// complete network state (every register, buffer, latch, NI queue, RNG
// stream and cloneable monitor) at or before the injection cycle — and
// only then arm the fault plane. A snapshot that precedes the injection
// cycle (the exact engine's cycle-0 one) is fast-replayed fault-free
// with no checkers attached and verified against the golden fingerprint
// recorded at the injection cycle; one taken at the injection cycle
// itself (the fast engine's) needs neither.
func (w *worker) fork(gc *groupCtx, plane *fault.Plane, st *runStats, ro *runObs) (*sim.Network, error) {
	from := gc.snap.Cycle()
	n := gc.snap.CloneInto(w.net, nil)
	w.net = n
	if from < gc.cycle {
		for n.Cycle() < gc.cycle {
			n.Step()
		}
		if n.Fingerprint() != gc.forkFP {
			detail := fmt.Sprintf("replay from snapshot %d diverged at cycle %d", from, gc.cycle)
			ro.anomaly("fork fingerprint mismatch", "fork_verify", gc.cycle, detail)
			return nil, fmt.Errorf("campaign: fork replay from snapshot %d diverged from the golden state at cycle %d",
				from, gc.cycle)
		}
		ro.event("fork_verify", gc.cycle, "ok", map[string]any{"snapshot_cycle": from})
		// Replay ejections all happened strictly before the injection
		// cycle; drop them so the log keeps the post-injection-only
		// contract every fork-point comparison relies on.
		n.ResetEjections()
	}
	n.SetPlane(plane)
	st.warmSaved = from
	st.forked = from > 0
	return n, nil
}
