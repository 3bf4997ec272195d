package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEngineNameTagsRows pins the bench-row engine tag: the fast engine
// keeps the "frontier" tag its committed rows carry, -exact rows are
// tagged "exact", and -benchbaseline only ever gates a row against a
// baseline of its own engine.
func TestEngineNameTagsRows(t *testing.T) {
	if got := engineName(false); got != "frontier" {
		t.Fatalf("fast engine tagged %q, want frontier", got)
	}
	if got := engineName(true); got != "exact" {
		t.Fatalf("exact engine tagged %q, want exact", got)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`[
  {"name": "campaign-8x8", "engine": "frontier", "faults_per_sec": 200},
  {"name": "campaign-8x8", "engine": "exact", "faults_per_sec": 10}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	// 100 faults in 1 s: half the fast baseline, ten times the exact one.
	if err := checkBenchBaseline(path, "campaign-8x8", engineName(false), 100, time.Second); err == nil {
		t.Fatal("a fast row at half its baseline passed the gate")
	}
	if err := checkBenchBaseline(path, "campaign-8x8", engineName(true), 100, time.Second); err != nil {
		t.Fatalf("an exact row was gated against the fast baseline: %v", err)
	}
	err := checkBenchBaseline(path, "campaign-8x8", "soa", 100, time.Second)
	if err == nil || !strings.Contains(err.Error(), "no record") {
		t.Fatalf("a row of an engine with no baseline got %v, want a missing-record error", err)
	}
}
