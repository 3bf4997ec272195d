package golden

import "testing"

// TestTimelineFootprintPinned pins Timeline.ApproxFootprintBytes to
// its documented arithmetic: 32 bytes per point at capacity plus the
// fixed header. Report.TimelineBytes folds this in, so the estimate
// must track TimelinePoint's actual field set.
func TestTimelineFootprintPinned(t *testing.T) {
	var nilTL *Timeline
	if got := nilTL.ApproxFootprintBytes(); got != 0 {
		t.Fatalf("nil Timeline footprint = %d, want 0", got)
	}

	tl := NewTimeline(500)
	if got, want := tl.ApproxFootprintBytes(), int64(cap(tl.points))*32+32; got != want {
		t.Fatalf("Timeline.ApproxFootprintBytes() = %d, want %d", got, want)
	}
	if got := tl.ApproxFootprintBytes(); got < 500*32 {
		t.Fatalf("Timeline.ApproxFootprintBytes() = %d, want >= %d for 500 requested points", got, 500*32)
	}
}
