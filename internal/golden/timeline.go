package golden

import "nocalert/internal/sim"

// TimelinePoint is the golden run's recorded summary of one cycle
// boundary: the cheap counters a faulty run whose divergence frontier
// has emptied compares before declaring reconvergence.
type TimelinePoint struct {
	// Ejections is the number of post-fork ejections by the boundary.
	Ejections int
	// FlitsInjected and FlitsEjected are the network's cumulative flit
	// counters at the boundary.
	FlitsInjected, FlitsEjected int64
	// NextPkt is the id the next generated packet would take.
	NextPkt uint64
}

// Timeline is the golden run's per-cycle counter record over the
// post-injection window, stored alongside the ejection Log.
type Timeline struct {
	start  int64 // cycle of points[0]
	points []TimelinePoint
}

// NewTimeline returns a timeline with room for n points.
func NewTimeline(n int) *Timeline {
	return &Timeline{points: make([]TimelinePoint, 0, n)}
}

// Observe records the network's counters at its current cycle boundary.
// postFork must be the network's post-fork ejection history (the full
// ejection log sliced at the fork index).
func (t *Timeline) Observe(n *sim.Network, postFork []sim.Ejection) {
	if len(t.points) == 0 {
		t.start = n.Cycle()
	}
	t.points = append(t.points, TimelinePoint{
		Ejections:     len(postFork),
		FlitsInjected: n.FlitsInjected(),
		FlitsEjected:  n.FlitsEjected(),
		NextPkt:       n.NextPacketID(),
	})
}

// ApproxFootprintBytes estimates the memory the timeline retains: the
// point array at capacity plus the fixed header. Like the other
// Approx* footprints it is a deliberate estimate (capacities, not a
// heap walk) so campaign memory reporting stays O(1).
func (t *Timeline) ApproxFootprintBytes() int64 {
	if t == nil {
		return 0
	}
	const pointBytes = 32 // 4 × 8-byte fields per TimelinePoint
	const headerBytes = 32
	return int64(cap(t.points))*pointBytes + headerBytes
}

// At returns the point recorded for the given cycle boundary.
func (t *Timeline) At(cycle int64) (TimelinePoint, bool) {
	if t == nil {
		return TimelinePoint{}, false
	}
	i := cycle - t.start
	if i < 0 || i >= int64(len(t.points)) {
		return TimelinePoint{}, false
	}
	return t.points[i], true
}
