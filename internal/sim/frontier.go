package sim

import (
	"fmt"
	"math/bits"

	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// Frontier is the divergence-frontier delta engine: attached to a
// forked faulty network, it restricts Network.Step to the nodes a
// fault's perturbation can have reached, replaying everything else from
// the golden signal transcript (see record.go). It adds no step loop of
// its own: Step runs its usual phases over the members, and at each
// phase the frontier replays the clean nodes' recorded signals and
// compares the members' outbound traffic with the record.
//
// The invariant: a node outside the frontier holds exactly the golden
// state of some past boundary (validAt), and every signal it has
// emitted since the fork equals golden's record. That holds inductively
// because influence moves at most one link per cycle: a clean node's
// inputs can only change when a frontier neighbor emits something that
// differs from golden's record for that link — and that comparison is
// exactly the join trigger. The moment a member's outbound flit or
// credit traffic toward a clean node deviates from the record (a
// different value, an extra signal, or a missing one), the target's
// state is materialized by replaying it forward from its valid
// boundary (golden inputs from the record, plus the live divergent
// inputs on the final cycle) and it becomes a member.
//
// Members retire once the fault plane is quiescent and their per-node
// state fold returns to the recorded golden fold for the same boundary;
// a frontier that shrinks to empty with a clean ejection history is
// reconvergence: from then on the faulty run replays golden.
//
// Everything observable stays exact: monitors are fed the merged event
// stream (live events from members, recorded events from clean nodes),
// the ejection log and the global counters are maintained cycle by
// cycle, and NoCAlert's checker sweeps only ever see member routers —
// exact because the golden run is invariant-clean, so clean routers can
// assert nothing.
type Frontier struct {
	n   *Network
	rec *Recording

	inF       []bool  // current membership
	wasMember []bool  // membership at the start of the cycle being stepped
	validAt   []int64 // for non-members: boundary their state is golden at
	size      int

	// clean is true while the run's post-fork ejection history equals
	// golden's, value for value. It never returns to true once false.
	clean bool

	peak  int
	joins int64

	// per-cycle scratch: the members at the start of the cycle
	// (ascending), transcript cursors for the node-ordered generation,
	// send and ejection records, held member→clean traffic, and joins.
	members       []int
	gi, si, ei    int
	gHi, sHi, eHi int
	pendF         []pendFlit
	pendC         []pendCred
	matchedF      []bool
	matchedC      []bool
	joinList      []int
	genPkt        flit.Packet
}

// pendFlit is a member's live emission toward a clean node, held until
// the cycle's join decisions are made.
type pendFlit struct {
	src, dst int
	port     topology.Direction
	f        *flit.Flit
}

// pendCred is a member's live credit traffic toward a clean node,
// aggregated per link as a VC mask.
type pendCred struct {
	src, dst int
	port     topology.Direction
	mask     uint32
}

// NewFrontier attaches a frontier to n seeded with the given node ids
// (the fault sites); every later n.Step is frontier-restricted until
// MaterializeAll. n must stand at the transcript's start boundary — the
// state every node's validAt is pinned to — and rec must be the golden
// transcript of the window about to be stepped.
func NewFrontier(n *Network, rec *Recording, seeds []int) *Frontier {
	if n.cycle != rec.start {
		panic(fmt.Sprintf("sim: frontier fork at cycle %d does not match transcript start %d", n.cycle, rec.start))
	}
	if n.arena == nil {
		n.arena = &flit.Arena{}
	}
	nodes := len(n.routers)
	f := &Frontier{
		n: n, rec: rec, clean: true,
		inF:       make([]bool, nodes),
		wasMember: make([]bool, nodes),
		validAt:   make([]int64, nodes),
	}
	for i := range f.validAt {
		f.validAt[i] = n.cycle
	}
	for _, s := range seeds {
		if !f.inF[s] {
			f.inF[s] = true
			f.size++
		}
	}
	f.peak = f.size
	n.fr = f
	return f
}

// Empty reports whether no node is divergent.
func (f *Frontier) Empty() bool { return f.size == 0 }

// Clean reports whether the post-fork ejection history still equals
// golden's, value for value.
func (f *Frontier) Clean() bool { return f.clean }

// Peak returns the largest membership the frontier reached.
func (f *Frontier) Peak() int { return f.peak }

// Joins returns how many times a node joined the frontier (a node that
// retires and diverges again counts once per join).
func (f *Frontier) Joins() int64 { return f.joins }

// beginCycle snapshots the membership cycle t is stepped with and
// positions the transcript cursors at cycle t's records.
func (f *Frontier) beginCycle(t int64) {
	if !f.rec.covers(t) {
		panic(fmt.Sprintf("sim: frontier stepped to cycle %d outside transcript [%d,%d)", t, f.rec.start, f.rec.start+int64(f.rec.Cycles())))
	}
	copy(f.wasMember, f.inF)
	f.members = f.members[:0]
	for i, m := range f.inF {
		if m {
			f.members = append(f.members, i)
		}
	}
	f.gi, f.gHi = f.rec.seg(f.rec.genIdx, t)
	f.si, f.sHi = f.rec.seg(f.rec.sendIdx, t)
	f.ei, f.eHi = f.rec.seg(f.rec.ejectIdx, t)
	f.pendF = f.pendF[:0]
	f.pendC = f.pendC[:0]
}

// replayGen consumes node id's recorded packet generations for cycle t
// and reports whether the node generates live. A member does: the
// generation process is fault-independent, so its live draws equal the
// records it skips. A clean node's records are announced to the
// monitors and advance the packet counters in golden's node order,
// without touching its (stale by design) NI queue and RNG.
func (f *Frontier) replayGen(id int, t int64) bool {
	n := f.n
	for ; f.gi < f.gHi && int(f.rec.gens[f.gi].node) == id; f.gi++ {
		if f.wasMember[id] {
			continue
		}
		g := &f.rec.gens[f.gi]
		// Monitors read the packet during the call and do not retain
		// it, so one scratch value serves every event.
		f.genPkt = flit.Packet{
			ID:         g.id,
			Src:        id,
			Dest:       int(g.dest),
			Class:      int(g.class),
			Length:     n.rcfg.PacketLen(int(g.class)),
			Payload:    g.payload,
			InjectedAt: t,
		}
		n.nextPkt++
		n.pktsOffered++
		for _, m := range n.monitors {
			m.PacketInjected(t, id, &f.genPkt)
		}
	}
	return f.wasMember[id]
}

// holdFlit holds a member's live flit toward a clean node for exchange.
func (f *Frontier) holdFlit(src, dst int, port topology.Direction, fl *flit.Flit) {
	f.pendF = append(f.pendF, pendFlit{src: src, dst: dst, port: port, f: fl})
}

// holdCredit aggregates a member's live credit toward a clean node into
// the per-link VC mask held for exchange.
func (f *Frontier) holdCredit(src, dst int, port topology.Direction, vc int) {
	for i := len(f.pendC) - 1; i >= 0; i-- {
		pc := &f.pendC[i]
		if pc.src != src {
			break
		}
		if pc.dst == dst {
			pc.mask |= 1 << uint(vc)
			return
		}
	}
	f.pendC = append(f.pendC, pendCred{src: src, dst: dst, port: port, mask: 1 << uint(vc)})
}

// exchange finishes cycle t's link phase across the frontier boundary:
// every held member emission toward a clean node is checked against the
// record, and any deviation (different value, extra signal, missing
// signal) joins the target; clean nodes' recorded emissions are
// delivered into members; and the joiners are materialized.
func (f *Frontier) exchange(t int64) {
	n := f.n
	lLo, lHi := f.rec.seg(f.rec.linkIdx, t)
	cLo, cHi := f.rec.seg(f.rec.credIdx, t)
	f.matchedF = growBools(f.matchedF, lHi-lLo)
	f.matchedC = growBools(f.matchedC, cHi-cLo)
	f.joinList = f.joinList[:0]

	for i := range f.pendF {
		pf := &f.pendF[i]
		found := false
		for k := lLo; k < lHi; k++ {
			l := &f.rec.links[k]
			if int(l.src) == pf.src && int(l.dst) == pf.dst {
				found = true
				f.matchedF[k-lLo] = true
				if l.flit != *pf.f {
					f.markJoin(pf.dst)
				}
				break
			}
		}
		if !found {
			f.markJoin(pf.dst)
		}
	}
	for i := range f.pendC {
		pc := &f.pendC[i]
		found := false
		for k := cLo; k < cHi; k++ {
			c := &f.rec.credits[k]
			if int(c.src) == pc.src && int(c.dst) == pc.dst {
				found = true
				f.matchedC[k-cLo] = true
				if c.mask != pc.mask {
					f.markJoin(pc.dst)
				}
				break
			}
		}
		if !found {
			f.markJoin(pc.dst)
		}
	}
	// Recorded golden emissions from a member that the live member did
	// not reproduce: the golden flow the target expected is missing.
	for k := lLo; k < lHi; k++ {
		l := &f.rec.links[k]
		if f.wasMember[l.src] && !f.wasMember[l.dst] && !f.matchedF[k-lLo] {
			f.markJoin(int(l.dst))
		}
	}
	for k := cLo; k < cHi; k++ {
		c := &f.rec.credits[k]
		if f.wasMember[c.src] && !f.wasMember[c.dst] && !f.matchedC[k-cLo] {
			f.markJoin(int(c.dst))
		}
	}

	// Golden replay: clean nodes' recorded emissions into members.
	for k := lLo; k < lHi; k++ {
		l := &f.rec.links[k]
		if !f.wasMember[l.src] && f.wasMember[l.dst] {
			n.routers[l.dst].StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
		}
	}
	for k := cLo; k < cHi; k++ {
		c := &f.rec.credits[k]
		if !f.wasMember[c.src] && f.wasMember[c.dst] {
			stageCreditMask(n.routers[c.dst], topology.Direction(c.dstPort), c.mask)
		}
	}

	// Execute the joins: materialize each target by replaying it from
	// its valid boundary, then admit it. Joins touch only the joining
	// node, so their order is immaterial.
	for _, j := range f.joinList {
		f.replayNode(j, t)
		f.inF[j] = true
		f.size++
		f.joins++
		if f.size > f.peak {
			f.peak = f.size
		}
	}
}

// markJoin queues a node for frontier admission this cycle (idempotent
// within the cycle).
func (f *Frontier) markJoin(id int) {
	for _, j := range f.joinList {
		if j == id {
			return
		}
	}
	f.joinList = append(f.joinList, id)
}

// replayNI consumes node id's recorded send strobe and ejections for
// cycle t and reports whether the node's NI ticks live. A member does,
// and gets its recorded ejections back for compareEjections. A clean
// node — including this cycle's joiners, whose cycle-t NI effects were
// computed from still-golden state and so equal the record — replays
// its records into the counters, the log and the monitors.
func (f *Frontier) replayNI(id int, t int64) ([]recEject, bool) {
	n := f.n
	sent := f.si < f.sHi && int(f.rec.sends[f.si]) == id
	if sent {
		f.si++
	}
	lo := f.ei
	for f.ei < f.eHi && int(f.rec.ejects[f.ei].node) == id {
		f.ei++
	}
	if f.wasMember[id] {
		return f.rec.ejects[lo:f.ei], true
	}
	if sent {
		n.flitsInjected++
	}
	for i := lo; i < f.ei; i++ {
		fl := n.arena.CloneOf(&f.rec.ejects[i].flit)
		n.flitsEjected++
		n.ejections = append(n.ejections, Ejection{Node: id, Cycle: t, Flit: fl})
		for _, m := range n.monitors {
			m.FlitEjected(t, id, fl)
		}
	}
	return nil, false
}

// compareEjections clears the clean flag unless a member's live
// ejections equal golden's recorded ones, value for value.
func (f *Frontier) compareEjections(want []recEject, got []*flit.Flit) {
	if !f.clean {
		return
	}
	if len(want) != len(got) {
		f.clean = false
		return
	}
	for i, fl := range got {
		if want[i].flit != *fl {
			f.clean = false
			return
		}
	}
}

// retire removes members whose state has returned to golden. Only legal
// once the fault plane is quiescent: from then on the faulty network is
// an unfaulted deterministic system, so a node whose fold equals the
// recorded golden fold at the same boundary — inputs included, since
// the fold covers staged arrivals and credits — will replay golden
// exactly until a frontier neighbor diverges its inputs again (which is
// the join trigger).
func (f *Frontier) retire(t int64) {
	n := f.n
	if f.size == 0 || !n.FaultsQuiescent() {
		return
	}
	for _, id := range f.members {
		if !f.inF[id] {
			continue
		}
		if n.nodeFold(id) == f.rec.foldAt(t, id) {
			f.inF[id] = false
			f.validAt[id] = t + 1
			f.size--
		}
	}
}

// replayNode materializes node id's live state at boundary through+1 by
// replaying cycles [validAt, through] with golden inputs from the
// transcript. The node's own Local traffic loops back live; its
// emissions toward neighbors are discarded (their effects are already
// baked into the records the neighbors consumed); monitors see nothing
// (every observable event of these cycles was already announced from
// the records as they happened). On the final cycle the inbound staging
// overrides golden with the live emissions of current members — the
// divergent signals that triggered the join.
func (f *Frontier) replayNode(id int, through int64) {
	n := f.n
	ni := n.nis[id]
	r := n.routers[id]
	for s := f.validAt[id]; s <= through; s++ {
		if n.injecting && n.pktProb > 0 && ni.gen.Bernoulli(n.pktProb) {
			class := n.pickClass(ni.gen)
			dest := n.cfg.Pattern.Dest(n.mesh, id, ni.gen)
			payload := ni.gen.Uint64()
			p := &flit.Packet{
				ID:         f.genIDFor(s, id),
				Src:        id,
				Dest:       dest,
				Class:      class,
				Length:     n.rcfg.PacketLen(class),
				Payload:    payload,
				InjectedAt: s,
			}
			ni.enqueue(p)
		}
		r.BeginCycle(s)
		r.Evaluate(s)
		for _, d := range r.Signals().Departures {
			if topology.Direction(d.OutPort) == topology.Local {
				ni.flitArrived(d.Flit, s+1)
			}
		}
		for _, c := range r.Credits() {
			if c.Port == topology.Local {
				ni.creditArrived(c.VC, s+1)
			}
		}
		lLo, lHi := f.rec.seg(f.rec.linkIdx, s)
		cLo, cHi := f.rec.seg(f.rec.credIdx, s)
		if s < through {
			for k := lLo; k < lHi; k++ {
				l := &f.rec.links[k]
				if int(l.dst) == id {
					r.StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
				}
			}
			for k := cLo; k < cHi; k++ {
				c := &f.rec.credits[k]
				if int(c.dst) == id {
					stageCreditMask(r, topology.Direction(c.dstPort), c.mask)
				}
			}
		} else {
			// Final cycle: golden inputs from clean neighbors, live
			// inputs from members (whatever they actually emitted, which
			// is what diverged).
			for k := lLo; k < lHi; k++ {
				l := &f.rec.links[k]
				if int(l.dst) == id && !f.wasMember[l.src] {
					r.StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
				}
			}
			for k := cLo; k < cHi; k++ {
				c := &f.rec.credits[k]
				if int(c.dst) == id && !f.wasMember[c.src] {
					stageCreditMask(r, topology.Direction(c.dstPort), c.mask)
				}
			}
			for i := range f.pendF {
				pf := &f.pendF[i]
				if pf.dst == id {
					r.StageArrival(pf.port, pf.f)
				}
			}
			for i := range f.pendC {
				pc := &f.pendC[i]
				if pc.dst == id {
					stageCreditMask(r, pc.port, pc.mask)
				}
			}
		}
		n.ejectScratch = n.ejectScratch[:0]
		ni.tickInject(s, r, &n.ejectScratch)
		// Replayed ejections and send strobes are discarded: they were
		// logged and counted from the records when cycle s completed.
	}
}

// genIDFor returns the packet id golden assigned to node's generation
// at cycle s. A replaying node's Bernoulli hit must have a matching
// record — generation is fault-independent — so a miss means the
// transcript and the replay disagree about the RNG stream.
func (f *Frontier) genIDFor(s int64, node int) uint64 {
	lo, hi := f.rec.seg(f.rec.genIdx, s)
	for k := lo; k < hi; k++ {
		if int(f.rec.gens[k].node) == node {
			return f.rec.gens[k].id
		}
	}
	panic(fmt.Sprintf("sim: replay of node %d drew a generation at cycle %d with no golden record", node, s))
}

// MaterializeAll restores every non-member node to full live state by
// cloning it from wend, the golden network at the window-end boundary —
// legal because a clean node's state and inputs are golden's by the
// frontier invariant. Members keep their live (divergent) state; the
// network-level counters were maintained cycle by cycle and are not
// touched. The frontier detaches: after this the network is an ordinary
// full simulation again (the campaign's drain and horizon phases step
// it normally).
func (f *Frontier) MaterializeAll(wend *Network) {
	n := f.n
	if wend.cycle != n.cycle {
		panic(fmt.Sprintf("sim: materialize from golden boundary %d at live cycle %d", wend.cycle, n.cycle))
	}
	for i := range n.routers {
		if f.inF[i] {
			continue
		}
		n.routers[i] = wend.routers[i].CloneInto(n.routers[i], n.plane, n.arena)
		n.nis[i] = wend.nis[i].cloneInto(n.nis[i], n.arena)
	}
	n.fr = nil
}

// stageCreditMask stages one credit per set VC bit.
func stageCreditMask(r *router.Router, port topology.Direction, mask uint32) {
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		mask &^= 1 << uint(v)
		r.StageCredit(port, v)
	}
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}
