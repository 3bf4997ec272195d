// Package sim assembles routers, links and network interfaces into a
// cycle-accurate mesh NoC and drives the simulation loop. It plays the
// role GARNET plays in the paper: the substrate the NoCAlert checkers,
// the fault-injection campaign and the ForEVeR baseline all plug into.
package sim

import (
	"fmt"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/soa"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// Config describes a simulation: the router micro-architecture, the
// traffic workload and the random seed.
type Config struct {
	// Router is the per-router micro-architecture.
	Router router.Config
	// Pattern is the traffic pattern; nil means uniform random.
	Pattern traffic.Pattern
	// InjectionRate is the offered load in flits per node per cycle.
	InjectionRate float64
	// ClassWeights optionally biases packet generation among message
	// classes; nil means equal weights.
	ClassWeights []float64
	// Seed seeds all per-node generators.
	Seed uint64
	// DisableSoA selects the reference sweep engine: routers sweep the
	// full VC range every cycle and the network steps every router, with
	// no activity-mask shortcuts. Storage is identical either way (the
	// structure-of-arrays state), so both engines produce bit-identical
	// simulations; the reference engine is the comparison baseline for
	// the lockstep tests, and the exact campaign engine steps with it.
	DisableSoA bool
}

// Ejection is one flit delivered to a node's NI, the unit of the
// golden-reference log.
type Ejection struct {
	Node  int
	Cycle int64
	Flit  *flit.Flit
}

// Network is a mesh NoC under simulation.
type Network struct {
	cfg  Config
	rcfg *router.Config
	mesh topology.Mesh

	// st owns every router's and NI's register file as flat contiguous
	// arrays; routers and NIs hold per-node views into it. Forks bulk-
	// copy it; the step loop's activity masks live in it.
	st      *soa.State
	routers []*router.Router
	nis     []*NI
	// soaOff mirrors Config.DisableSoA (copied on clone): when set, Step
	// visits every router every cycle instead of skipping inert ones.
	soaOff bool

	monitors []Monitor
	plane    *fault.Plane

	cycle     int64
	nextPkt   uint64
	injecting bool
	pktProb   float64

	flitsInjected int64
	flitsEjected  int64
	pktsOffered   int64

	ejections []Ejection

	// scratch reused across cycles
	ejectScratch []*flit.Flit
	// steppedScratch holds the routers actually stepped this cycle; link
	// traversal and monitor visits iterate it (a skipped router's signal
	// record and credit staging are stale).
	steppedScratch []*router.Router

	// ids lists every node id in ascending order: the router sweep's
	// visiting order when no frontier restricts it. Shared read-only
	// between clones.
	ids []int
	// fr, when non-nil, is the divergence frontier restricting live
	// stepping to its members (see frontier.go). Attached by NewFrontier,
	// detached by MaterializeAll; never copied by Clone/CloneInto.
	fr *Frontier

	// arena backs flit copies when this network is a CloneInto target;
	// it is reset and refilled on every re-fork.
	arena *flit.Arena
	// rec, when non-nil, receives the golden signal transcript of every
	// Step (see record.go). Attached to the golden continuation only;
	// never copied by Clone/CloneInto.
	rec *Recording
	// planeInert caches Plane.Inert once it turns true (the property is
	// monotone), so the per-cycle fast-path check is a bool load.
	planeInert bool
	// planeQuiescent likewise caches Plane.Quiescent (also monotone).
	planeQuiescent bool
}

// New builds a network from the configuration. The fault plane may be
// nil for fault-free operation.
func New(cfg Config, plane *fault.Plane) (*Network, error) {
	if err := cfg.Router.Validate(); err != nil {
		return nil, err
	}
	if cfg.InjectionRate < 0 {
		return nil, fmt.Errorf("sim: negative injection rate %g", cfg.InjectionRate)
	}
	if cfg.Pattern == nil {
		cfg.Pattern = traffic.Uniform{}
	}
	n := &Network{cfg: cfg, mesh: cfg.Router.Mesh, plane: plane, injecting: true, nextPkt: 1, soaOff: cfg.DisableSoA}
	rcfg := cfg.Router
	n.rcfg = &rcfg
	nodes := n.mesh.Nodes()
	n.st = soa.NewState(soa.Layout{R: nodes, P: router.P, V: rcfg.VCs})
	n.routers = make([]*router.Router, nodes)
	n.nis = make([]*NI, nodes)
	n.ids = make([]int, nodes)
	for i := 0; i < nodes; i++ {
		n.ids[i] = i
		n.routers[i] = router.NewInState(i, n.rcfg, plane, n.st.View(i))
		n.routers[i].SetReferenceSweep(cfg.DisableSoA)
		nic, nif := n.st.NIView(i)
		n.nis[i] = newNI(i, n.rcfg, cfg.Seed, nic, nif)
	}
	n.pktProb = cfg.InjectionRate / n.meanPacketLen()
	return n, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config, plane *fault.Plane) *Network {
	n, err := New(cfg, plane)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) meanPacketLen() float64 {
	w := n.cfg.ClassWeights
	total, weight := 0.0, 0.0
	for c := 0; c < n.rcfg.Classes; c++ {
		wc := 1.0
		if c < len(w) {
			wc = w[c]
		}
		total += wc * float64(n.rcfg.PacketLen(c))
		weight += wc
	}
	if weight == 0 {
		return float64(n.rcfg.PacketLen(0))
	}
	return total / weight
}

// Mesh returns the topology.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// RouterConfig returns the shared router configuration.
func (n *Network) RouterConfig() *router.Config { return n.rcfg }

// Router returns the router at node id.
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// NI returns the network interface at node id.
func (n *Network) NI(id int) *NI { return n.nis[id] }

// Cycle returns the next cycle to be simulated (0 before any Step).
func (n *Network) Cycle() int64 { return n.cycle }

// Ejections returns the full ejection log since cycle 0.
func (n *Network) Ejections() []Ejection { return n.ejections }

// FlitsInjected returns the number of flits that have entered the
// network fabric (NI → router).
func (n *Network) FlitsInjected() int64 { return n.flitsInjected }

// FlitsEjected returns the number of flits delivered to NIs.
func (n *Network) FlitsEjected() int64 { return n.flitsEjected }

// InFlight estimates the flits inside the fabric. Fault-induced drops
// and duplications bias it, which is why campaign runs use a fixed
// horizon instead.
func (n *Network) InFlight() int64 { return n.flitsInjected - n.flitsEjected }

// PacketsOffered returns the number of packets generated so far.
func (n *Network) PacketsOffered() int64 { return n.pktsOffered }

// AttachMonitor registers a monitor for all subsequent cycles.
func (n *Network) AttachMonitor(m Monitor) { n.monitors = append(n.monitors, m) }

// Monitors returns the attached monitors.
func (n *Network) Monitors() []Monitor { return n.monitors }

// StopInjection stops generating new packets (drain mode). Packets
// already queued at NIs keep streaming.
func (n *Network) StopInjection() { n.injecting = false }

// ResumeInjection re-enables packet generation.
func (n *Network) ResumeInjection() { n.injecting = true }

// InjectPacket queues one directed packet at src's NI, bypassing the
// random traffic process (used for targeted tests and for recovery
// retransmissions). It returns the packet id. The packet flows through
// the normal injection path and is announced to monitors like any
// other.
func (n *Network) InjectPacket(src, dest, class int) uint64 {
	if src < 0 || src >= len(n.nis) || dest < 0 || dest >= len(n.nis) {
		panic(fmt.Sprintf("sim: InjectPacket with invalid nodes %d->%d", src, dest))
	}
	if class < 0 || class >= n.rcfg.Classes {
		class = 0
	}
	// The payload is derived from the packet id rather than drawn from
	// the NI's traffic generator: directed injections must not perturb
	// the background traffic stream (campaign forks and A/B runs rely
	// on replay determinism).
	p := &flit.Packet{
		ID:         n.nextPkt,
		Src:        src,
		Dest:       dest,
		Class:      class,
		Length:     n.rcfg.PacketLen(class),
		Payload:    n.nextPkt * 0x9e3779b97f4a7c15,
		InjectedAt: n.cycle,
	}
	n.nextPkt++
	n.pktsOffered++
	n.nis[src].enqueue(p)
	for _, m := range n.monitors {
		m.PacketInjected(n.cycle, src, p)
	}
	return p.ID
}

// Step simulates one cycle, phase by phase: packet generation, router
// pipelines, link traversal, monitors, network interfaces, end of
// cycle. It is the simulator's only per-cycle phase sequence. With a
// divergence frontier attached (see frontier.go) only the frontier's
// members are simulated live; at each phase every other node's signals
// are replayed from the golden transcript instead.
func (n *Network) Step() {
	t := n.cycle
	fr := n.fr
	if fr != nil {
		fr.beginCycle(t)
	}

	// Packet generation (per-node Bernoulli process).
	if n.injecting && n.pktProb > 0 {
		for id, ni := range n.nis {
			if fr != nil && !fr.replayGen(id, t) {
				continue
			}
			if !ni.gen.Bernoulli(n.pktProb) {
				continue
			}
			class := n.pickClass(ni.gen)
			p := &flit.Packet{
				ID:         n.nextPkt,
				Src:        id,
				Dest:       n.cfg.Pattern.Dest(n.mesh, id, ni.gen),
				Class:      class,
				Length:     n.rcfg.PacketLen(class),
				Payload:    ni.gen.Uint64(),
				InjectedAt: t,
			}
			n.nextPkt++
			n.pktsOffered++
			ni.enqueue(p)
			if n.rec != nil {
				n.rec.recordGen(id, p)
			}
			for _, m := range n.monitors {
				m.PacketInjected(t, id, p)
			}
		}
	}

	// Router pipelines. With the SoA engine and no live fault, routers
	// whose activity masks, staging and ST latches are all clear are
	// skipped outright: stepping one is a provable no-op (no state write,
	// no signal, no arbiter pointer movement), and at drain/low load most
	// of the mesh is in that state. A live fault window can conjure
	// activity out of an idle router (a register upset needs BeginCycle
	// to apply), so skipping is gated off while the plane is live.
	ids := n.ids
	if fr != nil {
		ids = fr.members
	}
	skipInert := !n.soaOff && !n.plane.LiveAt(t)
	stepped := n.steppedScratch[:0]
	for _, id := range ids {
		r := n.routers[id]
		if skipInert && r.Inert() {
			continue
		}
		r.BeginCycle(t)
		r.Evaluate(t)
		stepped = append(stepped, r)
	}
	n.steppedScratch = stepped

	// Link traversal: distribute departures and credits for cycle t+1.
	// Only stepped routers are visited — a skipped router's signal record
	// and credit staging are leftovers from the last cycle it ran. Under
	// a frontier, traffic toward a clean node is held for comparison with
	// the transcript instead of delivered.
	for _, r := range stepped {
		id := r.ID()
		for _, d := range r.Signals().Departures {
			dir := topology.Direction(d.OutPort)
			if dir == topology.Local {
				n.nis[id].flitArrived(d.Flit, t+1)
				continue
			}
			// A departure through a port the mesh does not have (a
			// fault-driven misroute at an edge router) falls off the
			// fabric: the flit is lost.
			nb, ok := n.mesh.Neighbor(id, dir)
			if !ok {
				continue
			}
			if fr != nil && !fr.wasMember[nb] {
				fr.holdFlit(id, nb, dir.Opposite(), d.Flit)
				continue
			}
			n.routers[nb].StageArrival(dir.Opposite(), d.Flit)
			if n.rec != nil {
				n.rec.recordLink(id, nb, int(dir.Opposite()), d.Flit)
			}
		}
		for _, c := range r.Credits() {
			if c.Port == topology.Local {
				n.nis[id].creditArrived(c.VC, t+1)
				continue
			}
			nb, ok := n.mesh.Neighbor(id, c.Port)
			if !ok {
				continue
			}
			if fr != nil && !fr.wasMember[nb] {
				fr.holdCredit(id, nb, c.Port.Opposite(), c.VC)
				continue
			}
			n.routers[nb].StageCredit(c.Port.Opposite(), c.VC)
			if n.rec != nil {
				n.rec.recordCredit(id, nb, int(c.Port.Opposite()), c.VC)
			}
		}
	}
	if fr != nil {
		fr.exchange(t)
	}

	// Monitors observe the completed cycle. Skipped routers are not
	// visited: every monitor is vacuous on an inert router's (empty)
	// signal record, so the observation stream is identical to the
	// reference engine's. Neither are a frontier's clean routers: they
	// replay the invariant-clean golden run, on which no checker fires.
	for _, m := range n.monitors {
		for _, r := range stepped {
			m.RouterCycle(r, r.Signals())
		}
	}

	// Network interfaces.
	for id, ni := range n.nis {
		var want []recEject
		if fr != nil {
			var live bool
			if want, live = fr.replayNI(id, t); !live {
				continue
			}
		}
		n.ejectScratch = n.ejectScratch[:0]
		if ni.tickInject(t, n.routers[id], &n.ejectScratch) {
			n.flitsInjected++
			if n.rec != nil {
				n.rec.recordSend(id)
			}
		}
		if fr != nil {
			fr.compareEjections(want, n.ejectScratch)
		}
		for _, f := range n.ejectScratch {
			n.flitsEjected++
			n.ejections = append(n.ejections, Ejection{Node: id, Cycle: t, Flit: f})
			if n.rec != nil {
				n.rec.recordEject(id, f)
			}
			for _, m := range n.monitors {
				m.FlitEjected(t, id, f)
			}
		}
	}

	for _, m := range n.monitors {
		m.EndCycle(t)
	}
	n.cycle = t + 1
	if n.rec != nil {
		n.rec.closeCycle(n)
	}
	if fr != nil {
		fr.retire(t)
	}
}

func (n *Network) pickClass(g *rng.PCG) int {
	if n.rcfg.Classes == 1 {
		return 0
	}
	w := n.cfg.ClassWeights
	if len(w) == 0 {
		return g.Intn(n.rcfg.Classes)
	}
	total := 0.0
	for c := 0; c < n.rcfg.Classes; c++ {
		if c < len(w) {
			total += w[c]
		}
	}
	if total <= 0 {
		return g.Intn(n.rcfg.Classes)
	}
	x := g.Float64() * total
	for c := 0; c < n.rcfg.Classes; c++ {
		if c < len(w) {
			x -= w[c]
		}
		if x < 0 {
			return c
		}
	}
	return n.rcfg.Classes - 1
}

// Run simulates the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain stops injection and runs until the fabric is empty or deadline
// cycles have elapsed, returning true if the network drained.
func (n *Network) Drain(deadline int64) bool {
	n.StopInjection()
	end := n.cycle + deadline
	for n.cycle < end {
		if n.InFlight() <= 0 && n.allNIsIdle() {
			return true
		}
		n.Step()
	}
	return n.InFlight() <= 0 && n.allNIsIdle()
}

func (n *Network) allNIsIdle() bool {
	for _, ni := range n.nis {
		if len(ni.queue) > 0 || len(ni.cur) > 0 || len(ni.inbox) > 0 {
			return false
		}
	}
	return true
}

// Quiet reports whether the fabric is empty and every NI is idle — the
// condition Drain polls for. Exposed so campaign loops that interleave
// their own per-cycle probes with the drain can reproduce Drain's exit
// condition exactly.
func (n *Network) Quiet() bool {
	return n.InFlight() <= 0 && n.allNIsIdle()
}

// SetPlane swaps the fault plane on this network and all its routers
// (used when a campaign fork replays a fault-free gap before arming the
// run's faults). The monotone plane caches are reset so the new plane's
// liveness is re-evaluated from the current cycle. Only meaningful at a
// cycle boundary, like Clone.
func (n *Network) SetPlane(p *fault.Plane) {
	n.plane = p
	n.planeInert = false
	n.planeQuiescent = false
	for _, r := range n.routers {
		r.SetPlane(p)
	}
}

// ResetEjections truncates the ejection log without touching the
// flit-ejected counter. Campaign forks that replay a fault-free gap
// call this at the injection cycle so the log — like a fresh CloneInto
// product's — holds post-injection ejections only, while the counters
// keep their absolute values for fingerprint comparisons.
func (n *Network) ResetEjections() {
	n.ejections = n.ejections[:0]
}

// ApproxFootprintBytes estimates the memory one full-state snapshot of
// this network retains: flit-slot capacity for every router buffer plus
// per-router and per-NI bookkeeping. It is a deterministic,
// configuration-derived capacity estimate (what campaign snapshots
// account against campaign_snapshot_bytes), not a heap measurement.
func (n *Network) ApproxFootprintBytes() int64 {
	const (
		flitBytes   = 96  // flit.Flit plus arena/slice overhead
		routerFixed = 640 // pipeline registers, arbiters, signal scratch
		niFixed     = 256 // credit bookkeeping, RNG, queue headers
	)
	nodes := int64(len(n.routers))
	slots := int64(router.P) * int64(n.rcfg.VCs) * int64(n.rcfg.BufDepth)
	perRouter := slots*flitBytes + routerFixed
	perNI := int64(n.rcfg.VCs)*32 + niFixed
	total := nodes * (perRouter + perNI)
	// An attached golden signal transcript is part of this network's
	// retained state; campaigns surface it through the same accounting
	// the snapshots use.
	total += n.rec.ApproxFootprintBytes()
	return total
}

// FaultsInert reports whether the attached fault plane can no longer
// influence this network from the current cycle onward — every fault
// window has closed without corrupting a consulted signal (see
// fault.Plane.Inert). Campaigns poll this after each Step to
// short-circuit runs whose remainder is bit-identical to the fault-free
// golden continuation. The property is monotone, so the result is
// cached once true.
func (n *Network) FaultsInert() bool {
	if !n.planeInert && n.plane.Inert(n.cycle) {
		n.planeInert = true
	}
	return n.planeInert
}

// newCloneShell builds an empty network whose routers and NIs are
// clone targets bound to a fresh shared SoA state of this network's
// geometry; Clone and CloneInto fill it in.
func (n *Network) newCloneShell() *Network {
	c := &Network{}
	c.st = soa.NewState(soa.Layout{R: len(n.routers), P: router.P, V: n.rcfg.VCs})
	c.routers = make([]*router.Router, len(n.routers))
	c.nis = make([]*NI, len(n.nis))
	for i := range c.routers {
		c.routers[i] = router.NewCloneTarget(n.rcfg, c.st.View(i))
		nic, nif := c.st.NIView(i)
		c.nis[i] = niCloneTarget(nic, nif)
	}
	return c
}

// copyScalars copies the network-level scalar state from n into c.
func (c *Network) copyScalars(n *Network, plane *fault.Plane) {
	c.cfg = n.cfg
	c.rcfg = n.rcfg
	c.mesh = n.mesh
	c.plane = plane
	c.soaOff = n.soaOff
	c.ids = n.ids
	c.fr = nil
	c.planeInert = false
	c.planeQuiescent = false
	c.cycle = n.cycle
	c.nextPkt = n.nextPkt
	c.injecting = n.injecting
	c.pktProb = n.pktProb
	c.flitsInjected = n.flitsInjected
	c.flitsEjected = n.flitsEjected
	c.pktsOffered = n.pktsOffered
}

// Clone deep-copies the network for a forked continuation under the
// given fault plane (nil for a fault-free fork). Attached monitors are
// carried over only when they implement CloneableMonitor.
func (n *Network) Clone(plane *fault.Plane) *Network {
	c := n.newCloneShell()
	c.copyScalars(n, plane)
	for i, r := range n.routers {
		r.CloneInto(c.routers[i], plane, nil)
	}
	for i, ni := range n.nis {
		ni.cloneInto(c.nis[i], nil)
	}
	c.ejections = append([]Ejection(nil), n.ejections...)
	for _, m := range n.monitors {
		if cm, ok := m.(CloneableMonitor); ok {
			c.monitors = append(c.monitors, cm.CloneMonitor())
		}
	}
	return c
}

// CloneInto is Clone reusing dst's allocations: routers, NIs, buffers
// and arbiters from a previous fork are overwritten in place, and all
// flit copies go through a per-clone arena that is recycled on every
// call. dst must be a previous CloneInto product of this network (or
// nil, in which case a fresh reusable clone is allocated); the caller
// must be done with dst's previous contents, including any flits it
// handed out. Returns dst.
//
// Two deliberate differences from Clone: the copy's ejection log starts
// empty (every pre-fork ejection happened strictly before the fork
// cycle, and campaign comparisons only consider post-fork ejections),
// and monitors are re-cloned into a reused slice. Campaign workers use
// CloneInto to pay the per-fork allocation storm once per worker
// instead of once per fault.
func (n *Network) CloneInto(dst *Network, plane *fault.Plane) *Network {
	c := dst
	if c == nil {
		c = n.newCloneShell()
		c.arena = &flit.Arena{}
	}
	c.arena.Reset()
	c.copyScalars(n, plane)
	for i, r := range n.routers {
		c.routers[i] = r.CloneInto(c.routers[i], plane, c.arena)
	}
	for i, ni := range n.nis {
		c.nis[i] = ni.cloneInto(c.nis[i], c.arena)
	}
	c.ejections = c.ejections[:0]
	c.ejectScratch = c.ejectScratch[:0]
	c.monitors = c.monitors[:0]
	for _, m := range n.monitors {
		if cm, ok := m.(CloneableMonitor); ok {
			c.monitors = append(c.monitors, cm.CloneMonitor())
		}
	}
	return c
}
