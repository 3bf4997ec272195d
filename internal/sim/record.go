package sim

import (
	"nocalert/internal/flit"
	"nocalert/internal/statehash"
)

// The golden signal recording: a per-cycle, per-link transcript of
// everything that crosses a boundary between two nodes of the fault-free
// golden continuation — packet generations, flits and credits on every
// inter-router link, NI send strobes, ejections — plus one per-node
// state fold per cycle boundary. A forked faulty run's divergence
// frontier (see frontier.go) consumes this transcript to stand in for
// every router it is not simulating: clean nodes' outbound signals are
// replayed from the record, a frontier member's outbound signals are
// compared against it to detect divergence spreading, and the per-node
// folds are what lets a member retire the moment its state returns to
// golden's.
//
// The record is value-based throughout (flit values, not pointers), so
// replaying it cannot alias the golden network's state, and it covers
// inter-node signals only: everything that happens strictly inside one
// node (buffer reads, arbitration, the NI's own credit maturation) is
// recomputed, never recorded.

// recGen is one packet generation event: node's NI drew a Bernoulli hit
// at the record's cycle. The RNG-derived fields are stored so the event
// can be fed to monitors (and replayed into a joining node) without
// touching any NI state.
type recGen struct {
	node    int32
	class   int32
	dest    int32
	id      uint64
	payload uint64
}

// recLink is one flit crossing the src→dst link: the value the flit had
// on the wire (post any sender-side mutation) and the input port it
// lands on at dst.
type recLink struct {
	src, dst int32
	dstPort  uint8
	flit     flit.Flit
}

// recCredit is the credit traffic on the src→dst credit link for one
// cycle, aggregated as a VC bitmask (StageCredit ORs per-VC bits, so a
// mask loses nothing).
type recCredit struct {
	src, dst int32
	dstPort  uint8
	mask     uint32
}

// recEject is one flit delivered to node's NI.
type recEject struct {
	node int32
	flit flit.Flit
}

// Recording is the golden signal transcript for a contiguous cycle
// range [start, start+cycles). Event storage is flat, indexed by
// per-cycle prefix offsets, so an 800-cycle window costs a handful of
// slice headers rather than thousands of small allocations.
type Recording struct {
	start int64
	nodes int

	gens    []recGen
	links   []recLink
	credits []recCredit
	sends   []int32
	ejects  []recEject
	// folds holds nodes per-node state folds per recorded cycle: entry
	// c*nodes+i is node i's fold at the boundary ending cycle start+c.
	folds []uint64

	// prefix offsets, one entry per closed cycle plus the open tail.
	genIdx, linkIdx, credIdx, sendIdx, ejectIdx []int32
}

func newRecording(start int64, nodes, cycles int) *Recording {
	r := &Recording{start: start, nodes: nodes}
	r.genIdx = append(make([]int32, 0, cycles+1), 0)
	r.linkIdx = append(make([]int32, 0, cycles+1), 0)
	r.credIdx = append(make([]int32, 0, cycles+1), 0)
	r.sendIdx = append(make([]int32, 0, cycles+1), 0)
	r.ejectIdx = append(make([]int32, 0, cycles+1), 0)
	r.folds = make([]uint64, 0, cycles*nodes)
	return r
}

// Cycles returns the number of fully recorded cycles.
func (rc *Recording) Cycles() int { return len(rc.genIdx) - 1 }

// covers reports whether cycle t is inside the recorded range.
func (rc *Recording) covers(t int64) bool {
	return t >= rc.start && t < rc.start+int64(rc.Cycles())
}

// seg returns the [lo,hi) event range of cycle t in the given prefix
// index. t must be a recorded cycle.
func (rc *Recording) seg(idx []int32, t int64) (int, int) {
	c := int(t - rc.start)
	return int(idx[c]), int(idx[c+1])
}

// foldAt returns node i's recorded state fold at the boundary that ends
// cycle t.
func (rc *Recording) foldAt(t int64, i int) uint64 {
	return rc.folds[int(t-rc.start)*rc.nodes+i]
}

// recordGen appends a generation event for the open cycle.
func (rc *Recording) recordGen(node int, p *flit.Packet) {
	rc.gens = append(rc.gens, recGen{
		node: int32(node), class: int32(p.Class), dest: int32(p.Dest),
		id: p.ID, payload: p.Payload,
	})
}

// recordLink appends a flit crossing src→dst, landing on dst's input
// port dstPort.
func (rc *Recording) recordLink(src, dst, dstPort int, f *flit.Flit) {
	rc.links = append(rc.links, recLink{src: int32(src), dst: int32(dst), dstPort: uint8(dstPort), flit: *f})
}

// recordCredit ORs a credit for VC vc into the src→dst mask of the open
// cycle (creating the entry on first use). The link loop emits credits
// grouped by src, so the scan for an existing entry only walks the
// current router's tail.
func (rc *Recording) recordCredit(src, dst, dstPort, vc int) {
	lo := int(rc.credIdx[len(rc.credIdx)-1])
	for i := len(rc.credits) - 1; i >= lo; i-- {
		e := &rc.credits[i]
		if int(e.src) != src {
			break
		}
		if int(e.dst) == dst {
			e.mask |= 1 << uint(vc)
			return
		}
	}
	rc.credits = append(rc.credits, recCredit{src: int32(src), dst: int32(dst), dstPort: uint8(dstPort), mask: 1 << uint(vc)})
}

// recordSend appends node's NI send strobe for the open cycle.
func (rc *Recording) recordSend(node int) {
	rc.sends = append(rc.sends, int32(node))
}

// recordEject appends an ejection at node for the open cycle.
func (rc *Recording) recordEject(node int, f *flit.Flit) {
	rc.ejects = append(rc.ejects, recEject{node: int32(node), flit: *f})
}

// closeCycle seals the open cycle: folds every node's state at the
// just-completed boundary and freezes the event ranges.
func (rc *Recording) closeCycle(n *Network) {
	for i := range n.routers {
		rc.folds = append(rc.folds, n.nodeFold(i))
	}
	rc.genIdx = append(rc.genIdx, int32(len(rc.gens)))
	rc.linkIdx = append(rc.linkIdx, int32(len(rc.links)))
	rc.credIdx = append(rc.credIdx, int32(len(rc.credits)))
	rc.sendIdx = append(rc.sendIdx, int32(len(rc.sends)))
	rc.ejectIdx = append(rc.ejectIdx, int32(len(rc.ejects)))
}

// ApproxFootprintBytes estimates the memory the transcript retains:
// flat event storage at capacity plus the prefix indices and the
// per-node fold table. Like Network.ApproxFootprintBytes it is a
// deterministic accounting estimate, not a heap measurement.
func (rc *Recording) ApproxFootprintBytes() int64 {
	if rc == nil {
		return 0
	}
	const (
		genBytes   = 32  // recGen
		linkBytes  = 112 // recLink (embedded flit value)
		credBytes  = 16  // recCredit
		ejectBytes = 104 // recEject (embedded flit value)
	)
	b := int64(cap(rc.gens))*genBytes +
		int64(cap(rc.links))*linkBytes +
		int64(cap(rc.credits))*credBytes +
		int64(cap(rc.sends))*4 +
		int64(cap(rc.ejects))*ejectBytes +
		int64(cap(rc.folds))*8
	b += int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx)) * 4
	return b
}

// nodeFold folds node i's full mutable state — router registers,
// buffers, staged arrivals, plus the NI — into one hash. It is the
// per-node slice of Network.foldBody's enumeration: a faulty run's node
// whose fold equals the golden recording's at the same boundary holds,
// up to hash collision, exactly the golden state.
func (n *Network) nodeFold(i int) uint64 {
	h := n.routers[i].FoldState(statehash.Seed)
	return n.nis[i].foldState(h)
}

// StartRecording attaches a fresh golden signal transcript to the
// network: every subsequent Step appends its inter-node signal traffic
// and per-node state folds until StopRecording. cycles sizes the
// per-cycle indices (the expected window length). Recording is meant
// for the fault-free golden continuation only; it is never cloned into
// forks.
func (n *Network) StartRecording(cycles int) {
	n.rec = newRecording(n.cycle, len(n.routers), cycles)
}

// StopRecording detaches and returns the transcript (nil if none was
// attached).
func (n *Network) StopRecording() *Recording {
	rec := n.rec
	n.rec = nil
	return rec
}
