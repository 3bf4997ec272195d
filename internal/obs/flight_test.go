package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilFlightRecorderIsNoOp(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(Event{Kind: "detection"})
	fr.Anomaly("x", Event{})
	fr.Dump("x")
	if fr.Events() != nil {
		t.Error("nil recorder returned events")
	}
	if fr.Dumps() != 0 {
		t.Error("nil recorder counted dumps")
	}
	if fr.Err() != nil {
		t.Error("nil recorder has an error")
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	fr := NewFlightRecorder(4, nil)
	for i := 0; i < 10; i++ {
		fr.Record(Event{Run: i, Cycle: int64(100 * i), Kind: "assertion"})
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantRun := 6 + i
		if ev.Run != wantRun {
			t.Errorf("event %d: run %d, want %d (oldest-first)", i, ev.Run, wantRun)
		}
		if ev.Seq != uint64(wantRun+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, wantRun+1)
		}
	}
}

func TestAnomalyDumpsRingAsNDJSON(t *testing.T) {
	var sink bytes.Buffer
	fr := NewFlightRecorder(8, &sink)
	fr.Record(Event{Run: 0, Cycle: 300, Kind: "fork_verify", Detail: "ok"})
	fr.Record(Event{Run: 1, Cycle: 500, Kind: "detection",
		Attrs: map[string]any{"checker": 12}})
	fr.Anomaly("fork fingerprint mismatch", Event{
		Run: 2, Cycle: 300, Kind: "fork_verify", Detail: "diverged",
	})
	fr.Dump("campaign end")
	if fr.Dumps() != 2 {
		t.Fatalf("dumps = %d, want 2", fr.Dumps())
	}
	if fr.Err() != nil {
		t.Fatalf("sink error: %v", fr.Err())
	}

	dumps, err := ReadDumps(&sink)
	if err != nil {
		t.Fatalf("ReadDumps: %v", err)
	}
	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want 2", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "fork fingerprint mismatch" {
		t.Errorf("reason = %q", d.Reason)
	}
	if len(d.Events) != 3 {
		t.Fatalf("dump carries %d events, want 3 (the anomaly event is included)", len(d.Events))
	}
	if last := d.Events[2]; last.Kind != "fork_verify" || last.Detail != "diverged" {
		t.Errorf("last event = %+v, want the anomaly itself", last)
	}
	if d.Events[0].Seq >= d.Events[1].Seq {
		t.Error("dump events not in sequence order")
	}
	if dumps[1].Reason != "campaign end" || len(dumps[1].Events) != 3 {
		t.Errorf("second dump = %q/%d events, want campaign end/3", dumps[1].Reason, len(dumps[1].Events))
	}
}

func TestDumpWithNilSinkStillCounts(t *testing.T) {
	fr := NewFlightRecorder(0, nil) // default capacity
	fr.Anomaly("missed detection", Event{Kind: "assertion"})
	if fr.Dumps() != 1 {
		t.Errorf("dumps = %d, want 1", fr.Dumps())
	}
	if len(fr.Events()) != 1 {
		t.Errorf("anomaly event not recorded")
	}
}

func TestReadDumpsToleratesTornTail(t *testing.T) {
	var sink bytes.Buffer
	fr := NewFlightRecorder(4, &sink)
	fr.Record(Event{Run: 0, Kind: "fork_verify"})
	fr.Dump("one")
	fr.Dump("two")
	whole := sink.String()
	torn := whole[:len(whole)-10]
	dumps, err := ReadDumps(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("ReadDumps on torn stream: %v", err)
	}
	if len(dumps) != 1 || dumps[0].Reason != "one" {
		t.Fatalf("torn stream yielded %d dumps, want just the first", len(dumps))
	}
}
