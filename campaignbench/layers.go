package main

import (
	"fmt"
	"io"
	"time"

	"nocalert"
)

// Phase spans the campaign engine emits (see CampaignOptions.Tracer),
// in the order a run meets them. "run-other" is the self time of the
// run spans: fork bookkeeping, synthesized exits and the verdict, the
// part of a run no phase span covers.
var phaseNames = []string{"golden-warmup", "warm-start", "fault-armed", "drain", "horizon",
	"fast-forward", "reconverged-tail", "run-other"}

var exitPaths = []nocalert.CampaignExitPath{nocalert.CampaignExitFastPath, nocalert.CampaignExitReconverged, nocalert.CampaignExitFull}

// traced is the --trace 1 run. It executes every campaign of the set
// traced, then pairs of untraced and traced executions for the rest of
// the time budget, then times each layer's public functions on the
// workload's configuration. The per-layer breakdown comes from the
// first traced execution of each campaign, so counts are exact counts
// over the set; the tracing overhead compares the two modes on the
// campaigns that ran in both.
func traced(out io.Writer, w *workload, sets []nocalert.CampaignOptions, budget time.Duration, chk *checker, m metrics) error {
	exs := measure(out, sets, budget, true, chk)
	first := map[int]*execution{}
	for _, ex := range exs {
		if ex.traced && first[ex.set] == nil {
			first[ex.set] = ex
		}
	}
	if len(first) != len(sets) {
		return fmt.Errorf("only %d of %d campaigns completed traced: %v", len(first), len(sets), chk.problems)
	}
	var pass []*execution
	for k := range sets {
		pass = append(pass, first[k])
	}

	both := map[int]bool{}
	for _, ex := range exs {
		if !ex.traced {
			both[ex.set] = true
		}
	}
	untracedFPS := summarize(exs, false, both).faultsPerSec
	tracedFPS := summarize(exs, true, both).faultsPerSec
	m.set("obs.trace_overhead_pct", (untracedFPS/tracedFPS-1)*100, "%")

	lb := breakdown(pass, w.workers())
	lb.print(out)
	lb.set(m)
	return micro(w, sets[0], m)
}

// layerBreakdown is one traced pass over the campaign set.
type layerBreakdown struct {
	faults, workers int
	wall, setup     float64 // seconds, summed over campaigns
	runs            map[nocalert.CampaignExitPath]int
	runS            map[nocalert.CampaignExitPath]float64
	fullRunMS       []float64
	phaseS          map[string]float64
	peaks           []float64
	joins           int64
	simCycles       int64
	synthCycles     int64
	timelineB       int64
	snapshotB       int64
	tp, fn, sameCyc int
	poolWorkerS     float64 // workers × (wall − set-up), summed
	runWallS        float64
}

func breakdown(pass []*execution, workers int) *layerBreakdown {
	lb := &layerBreakdown{workers: workers, runs: map[nocalert.CampaignExitPath]int{},
		runS: map[nocalert.CampaignExitPath]float64{}, phaseS: map[string]float64{}}
	for _, ex := range pass {
		rep := ex.report
		lb.faults += len(rep.Results)
		lb.wall += ex.wall.Seconds()
		lb.setup += ex.setup.Seconds()
		lb.poolWorkerS += float64(workers) * (ex.wall - ex.setup).Seconds()
		for i, e := range ex.exit {
			s := ex.runWall[i].Seconds()
			lb.runs[e]++
			lb.runS[e] += s
			lb.runWallS += s
			if e == nocalert.CampaignExitFull {
				lb.fullRunMS = append(lb.fullRunMS, s*1000)
			}
		}
		lb.simCycles += rep.SimulatedCycles
		lb.synthCycles += rep.SynthesizedCycles
		lb.timelineB += rep.TimelineBytes
		lb.snapshotB += rep.SnapshotBytes
		for i := range rep.Results {
			r := &rep.Results[i]
			switch r.Outcome {
			case nocalert.TruePositive:
				lb.tp++
				if r.Latency == 0 {
					lb.sameCyc++
				}
			case nocalert.FalseNegative:
				lb.fn++
			}
		}
		lb.addSpans(ex.spans)
	}
	return lb
}

// addSpans adds each phase span's self time (its duration less that of
// its child spans) and the frontier attributes of the run spans.
func (lb *layerBreakdown) addSpans(spans []nocalert.SpanRecord) {
	childS := map[string]float64{}
	for _, s := range spans {
		if s.ParentID != "" {
			childS[s.ParentID] += s.Duration().Seconds()
		}
	}
	for _, s := range spans {
		self := s.Duration().Seconds() - childS[s.SpanID]
		switch s.Kind {
		case "phase":
			lb.phaseS[s.Name] += self
		case "run":
			lb.phaseS["run-other"] += self
			if p, ok := s.Int("frontier_peak_routers"); ok {
				lb.peaks = append(lb.peaks, float64(p))
			}
			if j, ok := s.Int("frontier_joins"); ok {
				lb.joins += j
			}
		}
	}
}

func (lb *layerBreakdown) set(m metrics) {
	for _, e := range exitPaths {
		m.set("campaign.runs."+e.String(), float64(lb.runs[e]), "count")
		m.set("campaign.run_s."+e.String(), lb.runS[e], "s")
	}
	m.set("campaign.run_ms_p50.full", percentile(lb.fullRunMS, 50), "ms")
	m.set("campaign.run_ms_p95.full", percentile(lb.fullRunMS, 95), "ms")
	m.set("campaign.shortcut_ratio", float64(lb.runs[nocalert.CampaignExitFastPath]+lb.runs[nocalert.CampaignExitReconverged])/float64(lb.faults), "ratio")
	m.set("campaign.simulated_cycles", float64(lb.simCycles), "count")
	m.set("campaign.synthesized_cycles", float64(lb.synthCycles), "count")
	m.set("campaign.ns_per_simulated_cycle", lb.runWallS*1e9/float64(lb.simCycles), "ns")
	m.set("campaign.timeline_mb", float64(lb.timelineB)/1e6, "MB")
	m.set("campaign.snapshot_mb", float64(lb.snapshotB)/1e6, "MB")
	m.set("campaign.parallel_efficiency", lb.runWallS/lb.poolWorkerS, "ratio")
	for _, p := range phaseNames {
		m.set("phase."+p+"_s", lb.phaseS[p], "s")
	}
	m.set("phase.accounted_pct", lb.accountedPct(), "%")
	m.set("frontier.peak_routers_mean", mean(lb.peaks), "routers")
	m.set("frontier.peak_routers_p95", percentile(lb.peaks, 95), "routers")
	m.set("frontier.joins_total", float64(lb.joins), "count")
	m.set("model.nocalert_tp_pct", 100*float64(lb.tp)/float64(lb.faults), "%")
	m.set("model.nocalert_fn", float64(lb.fn), "count")
	m.set("model.same_cycle_detection_pct", 100*float64(lb.sameCyc)/float64(max(lb.tp, 1)), "%")
}

// accountedPct is the share of the traced campaigns' wall time that the
// set-up time and the run phases' self times (spread over the workers)
// explain.
func (lb *layerBreakdown) accountedPct() float64 {
	var runPhases float64
	for _, p := range phaseNames[1:] {
		runPhases += lb.phaseS[p]
	}
	return 100 * (lb.setup + runPhases/float64(lb.workers)) / lb.wall
}

func (lb *layerBreakdown) print(out io.Writer) {
	fmt.Fprintf(out, "\ntraced pass: %d faults, %d worker(s), %.3f s wall, %.3f s set-up\n", lb.faults, lb.workers, lb.wall, lb.setup)
	fmt.Fprintf(out, "%-18s %10s %8s\n", "phase (self time)", "seconds", "share")
	var total float64
	for _, p := range phaseNames {
		total += lb.phaseS[p]
	}
	for _, p := range phaseNames {
		fmt.Fprintf(out, "%-18s %10.3f %7.1f%%\n", p, lb.phaseS[p], 100*lb.phaseS[p]/total)
	}
	fmt.Fprintf(out, "set-up + run phases / workers = %.1f%% of wall\n\n", lb.accountedPct())
	fmt.Fprintf(out, "%-18s %8s %10s %10s\n", "exit path", "count", "seconds", "ms/run")
	for _, e := range exitPaths {
		fmt.Fprintf(out, "%-18s %8d %10.3f %10.3f\n", e, lb.runs[e], lb.runS[e], 1000*lb.runS[e]/float64(max(lb.runs[e], 1)))
	}
	fmt.Fprintf(out, "\nsimulated results (checked against the reference, not timed):\n")
	fmt.Fprintf(out, "  NoCAlert TP %.2f%%, FN %d, same-cycle detection %.2f%% of TPs\n\n",
		100*float64(lb.tp)/float64(lb.faults), lb.fn, 100*float64(lb.sameCyc)/float64(max(lb.tp, 1)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
