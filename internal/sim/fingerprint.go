package sim

import (
	"nocalert/internal/soa"
	"nocalert/internal/statehash"
)

// foldState folds the NI's mutable state into a state-fingerprint
// accumulator. The enumeration mirrors cloneInto exactly: queued
// packets, the streaming flit window, credit bookkeeping, in-flight
// link traffic and the traffic generator's RNG state.
func (ni *NI) foldState(h uint64) uint64 {
	h = statehash.FoldInt(h, ni.curVC)
	h = statehash.FoldInt(h, len(ni.queue))
	for _, p := range ni.queue {
		h = p.FoldState(h)
	}
	h = statehash.FoldInt(h, len(ni.cur))
	for _, f := range ni.cur {
		h = f.FoldState(h)
	}
	for v := range ni.outCredits {
		fl := ni.outFlags[v]
		h = statehash.FoldBool(h, fl&soa.NIFree != 0)
		h = statehash.FoldInt(h, int(ni.outCredits[v]))
		h = statehash.FoldBool(h, fl&soa.NITailSent != 0)
	}
	h = statehash.FoldInt(h, len(ni.inbox))
	for _, a := range ni.inbox {
		h = a.f.FoldState(h)
		h = statehash.Fold(h, uint64(a.cycle))
	}
	h = statehash.FoldInt(h, len(ni.credits))
	for _, c := range ni.credits {
		h = statehash.FoldInt(h, c.vc)
		h = statehash.Fold(h, uint64(c.cycle))
	}
	return ni.gen.FoldState(h)
}

// Fingerprint folds every piece of mutable network state — routers
// (pipeline registers, buffers, arbiters, in-flight link flits), NIs
// (queues, credit state, RNG streams) and the global counters — into
// one 64-bit hash. Two networks built from the same configuration whose
// fingerprints agree at a cycle boundary will, up to hash collision,
// produce identical simulations from that boundary on: the enumeration
// covers exactly the state CloneInto copies, which is by construction
// everything the next Step reads. Fault campaigns verify every fork's
// replayed state against the golden fingerprint at the fork point.
//
// Like cloning, the fingerprint is only meaningful at a cycle boundary.
// The ejection log is deliberately excluded — callers compare ejection
// histories separately (they are observations, not state the next cycle
// reads).
func (n *Network) Fingerprint() uint64 {
	h := statehash.Seed
	h = statehash.Fold(h, uint64(n.cycle))
	return n.foldBody(h)
}

// StaticFingerprint is Fingerprint without the cycle fold: two
// consecutive cycle boundaries of the same network agree iff no mutable
// state changed across the step. Every stamped queue in the simulator
// (NI inboxes, credit links, router pipeline stages) carries at most
// one cycle of lookahead, so two identical consecutive boundary states
// are a fixed point — no future Step can ever change the state again.
// Campaign fast-forward uses this to synthesize the remainder of a
// deadlocked drain or an idle ForEVeR horizon instead of stepping it.
func (n *Network) StaticFingerprint() uint64 {
	return n.foldBody(statehash.Seed)
}

func (n *Network) foldBody(h uint64) uint64 {
	h = statehash.Fold(h, n.nextPkt)
	h = statehash.FoldBool(h, n.injecting)
	h = statehash.Fold(h, uint64(n.flitsInjected))
	h = statehash.Fold(h, uint64(n.flitsEjected))
	h = statehash.Fold(h, uint64(n.pktsOffered))
	for _, r := range n.routers {
		h = r.FoldState(h)
	}
	for _, ni := range n.nis {
		h = ni.foldState(h)
	}
	return h
}

// NextPacketID returns the id the next generated packet will take —
// one of the counters campaigns compare with golden's before declaring
// reconvergence.
func (n *Network) NextPacketID() uint64 { return n.nextPkt }

// FaultsQuiescent reports whether the attached fault plane can no
// longer fire from the current cycle onward, regardless of whether it
// already corrupted state (see fault.Plane.Quiescent). This is the gate
// for reconvergence detection: once quiescent, the faulty network is an
// unfaulted deterministic system whose state either reconverges with
// the golden run or diverges forever. Monotone, so cached once true.
func (n *Network) FaultsQuiescent() bool {
	if !n.planeQuiescent && n.plane.Quiescent(n.cycle) {
		n.planeQuiescent = true
	}
	return n.planeQuiescent
}
