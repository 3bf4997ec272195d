// Package campaign orchestrates the paper's fault-injection methodology
// (§5.2–5.4): one fault-free golden run plus one forked, fault-injected
// run per fault, each classified against the Golden Reference into
// true/false positives/negatives for NoCAlert, NoCAlert-Cautious and
// ForEVeR. The aggregated report regenerates Figures 6–9 and
// Observations 1–5.
//
// A campaign runs on one of two engines, which produce byte-identical
// reports:
//
//   - fast (the default) takes every shortcut. The golden run is
//     snapshotted at every distinct injection cycle, so runs fork with
//     no replay; its fault-free continuation from each injection cycle
//     is simulated once and doubles as the template a fault that
//     provably never fired copies (fast path); the post-injection
//     window steps only the fault's divergence frontier and ends early
//     once the frontier empties with a clean ejection history
//     (reconvergence); and frozen drains and horizons are synthesized
//     instead of stepped (fast-forward).
//   - exact (Options.DisableFastPath) is the oracle the shortcuts are
//     checked against: every run replays its whole prefix from one
//     cycle-0 snapshot, verified against the golden fingerprint at its
//     injection cycle, and simulates its window, drain and ForEVeR
//     horizon in full, with the reference sweep on every router.
//
// Runs execute on a small worker pool; each worker reuses one clone
// arena (sim.Network.CloneInto) across all its runs.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/golden"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/rng"
	"nocalert/internal/sim"
)

// Outcome classifies one mechanism's behaviour on one injected fault,
// following the paper's four categories (§5.4).
type Outcome int

const (
	// TrueNegative: nothing detected, fault benign.
	TrueNegative Outcome = iota
	// TruePositive: detected, fault caused a network-correctness
	// violation.
	TruePositive
	// FalsePositive: detected, fault benign.
	FalsePositive
	// FalseNegative: not detected, fault caused a violation — the
	// outcome NoCAlert's design goal drives to zero.
	FalseNegative
)

// String returns the outcome's abbreviation.
func (o Outcome) String() string {
	switch o {
	case TrueNegative:
		return "TN"
	case TruePositive:
		return "TP"
	case FalsePositive:
		return "FP"
	case FalseNegative:
		return "FN"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// ExitPath identifies how a run reached its result. The three paths are
// result-equivalent — reports are byte-identical whichever path resolves
// a run — but differ enormously in cost, so campaigns count them.
type ExitPath int

const (
	// ExitFull: the run simulated PostInjectRun, drain and ForEVeR
	// horizon end to end.
	ExitFull ExitPath = iota
	// ExitFastPath: every fault of the group provably expired without
	// firing; the result was copied from the fault-free template.
	ExitFastPath
	// ExitReconverged: the fault fired but its perturbation washed out —
	// the divergence frontier emptied mid window with a clean ejection
	// history, so the faulty run had returned to golden's state and the
	// tail was synthesized instead of simulated.
	ExitReconverged
)

// String returns a short name for the exit path.
func (e ExitPath) String() string {
	switch e {
	case ExitFull:
		return "full"
	case ExitFastPath:
		return "fastpath"
	case ExitReconverged:
		return "reconverged"
	}
	return fmt.Sprintf("ExitPath(%d)", int(e))
}

func classify(detected, malicious bool) Outcome {
	switch {
	case detected && malicious:
		return TruePositive
	case detected && !malicious:
		return FalsePositive
	case !detected && malicious:
		return FalseNegative
	default:
		return TrueNegative
	}
}

// Options configures a campaign.
type Options struct {
	// Sim is the network and workload under test.
	Sim sim.Config
	// InjectCycle is the cycle SampleFaults-style universes inject at
	// (the paper uses 0, 32K and 64K). Each fault's own Cycle field is
	// authoritative: groups may inject at different cycles within one
	// campaign, and the golden run snapshots/forks at every distinct
	// injection cycle it encounters.
	InjectCycle int64
	// PostInjectRun is how many cycles injection continues after the
	// fault, giving the perturbation live traffic to interact with.
	PostInjectRun int64
	// DrainDeadline bounds the drain phase; a network that cannot
	// empty by then violates bounded delivery.
	DrainDeadline int64
	// Forever tunes the ForEVeR baseline.
	Forever forever.Options
	// Faults is the list of faults to inject, one run each.
	Faults []fault.Fault
	// FaultGroups, when non-empty, replaces Faults: each group injects
	// together in one run — the multi-fault extension the paper leaves
	// as future work. All faults of a group must inject at InjectCycle.
	FaultGroups [][]fault.Fault
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// CheckersDisabled optionally ablates NoCAlert checkers.
	CheckersDisabled []core.CheckerID
	// DisableFastPath selects the exact engine (see the package doc):
	// no fork, fast path, reconvergence, frontier or fast-forward, and
	// the reference sweep on full-mesh steps. Its reports are
	// byte-identical to the fast engine's (test-enforced); it exists as
	// the oracle for that check and as an escape hatch.
	DisableFastPath bool
	// DisableReconvergence, DisableFork, DisableFastForward and
	// DisableFrontier are aliases of DisableFastPath, kept for callers
	// that switch every shortcut off field by field; so is
	// Sim.DisableSoA. Setting any of them selects the exact engine.
	DisableReconvergence bool
	DisableFork          bool
	DisableFastForward   bool
	DisableFrontier      bool
	// DisableForever runs the campaign without a ForEVeR monitor: the
	// golden run and every faulty run skip the baseline entirely, and
	// finishRun skips the post-drain horizon run-out that exists only to
	// give ForEVeR's epoch check a chance to fire. ForEVeR result fields
	// report not-detected. NoCAlert and Cautious results are unaffected.
	DisableForever bool
	// Progress, when non-nil, is invoked after each completed run with
	// the number of finished runs and the total. Calls are serialized;
	// the callback must not call back into the campaign.
	Progress func(done, total int)
	// Metrics, when non-nil, receives campaign telemetry: run counts,
	// per-run wall-time histograms, fast-path hit/miss counters,
	// outcome and verdict-class counters, and a live faults/sec gauge
	// (see the Metric* name constants). Nil — the default — keeps the
	// hot path free of any telemetry cost.
	Metrics *metrics.Registry
	// OnResult, when non-nil, is invoked after each completed run with
	// the run's index in FaultGroups, its result, its wall time and the
	// exit path that resolved it. Calls are serialized under the same
	// mutex as Progress (and precede the Progress call for the same
	// run); the result pointer is only valid during the call if the
	// caller mutates the report afterwards — copy, don't retain. The
	// faultcampaign CLI streams its NDJSON run trace from here.
	OnResult func(index int, res *RunResult, wall time.Duration, exit ExitPath)
	// Context, when non-nil, cancels the campaign cooperatively: no new
	// runs start after it is done and Run returns its error. Runs
	// already in flight complete first.
	Context context.Context
	// Tracer, when non-nil, emits hierarchical spans — campaign →
	// run → phase (warm-start, fault-armed, drain, horizon, and the
	// reconverged/fast-forwarded tails) — carrying the cycle-accurate
	// accounting runStats tracks. Run spans honor the tracer's sampling
	// rate; the campaign span and golden-warmup phase never sample out.
	// Tracing never touches RunResult or the report: serialized reports
	// are byte-identical with tracing on or off (test-enforced).
	Tracer *obs.Tracer
	// TraceParent optionally parents the campaign span (the daemon's
	// job span, or a shard span), threading one correlation ID from a
	// nocalertd job down to every run it executes.
	TraceParent *obs.Span
	// FlightRecorder, when non-nil, receives cycle-stamped events from
	// the engine's trust boundaries (fork verifications, emptied
	// divergence frontiers, detections, fast-forward freezes) and
	// auto-dumps its ring on anomalies: a fork-verify mismatch or a
	// missed-detection (FN) verdict.
	FlightRecorder *obs.FlightRecorder
}

// exact reports whether o selects the exact engine. It is the only
// reader of the engine switches: any one of them selects it.
func (o *Options) exact() bool {
	return o.DisableFastPath || o.DisableReconvergence || o.DisableFork ||
		o.DisableFastForward || o.DisableFrontier || o.Sim.DisableSoA
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.exact() {
		// The exact engine steps every router with the reference sweep.
		out.Sim.DisableSoA = true
	}
	if out.PostInjectRun <= 0 {
		out.PostInjectRun = 500
	}
	if out.DrainDeadline <= 0 {
		out.DrainDeadline = 10000
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Context == nil {
		out.Context = context.Background()
	}
	if len(out.FaultGroups) == 0 {
		if len(out.Faults) == 0 {
			return out, errors.New("campaign: no faults to inject")
		}
		out.FaultGroups = make([][]fault.Fault, len(out.Faults))
		for i, f := range out.Faults {
			out.FaultGroups[i] = []fault.Fault{f}
		}
	}
	for _, g := range out.FaultGroups {
		if len(g) == 0 {
			return out, errors.New("campaign: empty fault group")
		}
		for _, f := range g {
			if f.Cycle < 0 {
				return out, fmt.Errorf("campaign: fault %v injects at negative cycle", &f)
			}
			if f.Cycle != g[0].Cycle {
				return out, fmt.Errorf("campaign: fault group mixes injection cycles %d and %d", g[0].Cycle, f.Cycle)
			}
		}
	}
	return out, nil
}

// RunResult is the outcome of one fault-injected run.
type RunResult struct {
	// Fault is the injected fault (the first of the group in
	// multi-fault runs; see Group).
	Fault fault.Fault
	// Group holds every fault of a multi-fault run.
	Group []fault.Fault
	// Fired reports whether the fault actually corrupted a live signal
	// (a fault on an idle module may never touch anything).
	Fired bool
	// Verdict is the golden-reference judgment.
	Verdict golden.Verdict
	// Drained reports whether the faulty network emptied in time.
	Drained bool

	// NoCAlert results.
	Detected    bool
	DetectCycle int64 // absolute cycle of first assertion
	Latency     int64 // DetectCycle - injection cycle
	Outcome     Outcome

	// NoCAlert-Cautious results (low-risk checkers 1 and 3 deferred).
	CautiousDetected bool
	CautiousLatency  int64
	CautiousOutcome  Outcome

	// ForEVeR results.
	ForeverDetected bool
	ForeverLatency  int64
	ForeverOutcome  Outcome

	// Checker attribution.
	CheckersFired      []core.CheckerID
	FirstCycleCheckers []core.CheckerID
	SimultaneityHist   []int64
}

// Report is the aggregated campaign output.
type Report struct {
	Opts Options
	// GoldenEjections is the number of flits the golden run delivered
	// after the injection cycle.
	GoldenEjections int
	// GoldenForeverFalsePositive reports whether ForEVeR flagged the
	// fault-free golden continuation (an epoch-tuning artifact).
	GoldenForeverFalsePositive bool
	// Results holds one entry per injected fault, in input order.
	Results []RunResult
	// FastPathHits counts runs resolved by the early-exit fast path
	// (fault provably never fired; result synthesized from the
	// fault-free template instead of simulating drain and horizon).
	FastPathHits int
	// ReconvergedHits counts runs whose fault fired but whose divergence
	// frontier emptied with a clean ejection history before the
	// post-injection window ended; their tails were synthesized from the
	// golden record instead of simulated.
	ReconvergedHits int
	// ForkedRuns counts runs that warm-started from a golden snapshot
	// above cycle 0, skipping their [0, snapshot) prefix entirely.
	ForkedRuns int
	// SnapshotCount and SnapshotBytes describe the golden snapshots
	// runs fork from — one per distinct injection cycle on the fast
	// engine, one at cycle 0 on the exact engine — and their estimated
	// memory footprint.
	SnapshotCount int
	SnapshotBytes int64
	// SimulatedCycles counts cycles faulty runs actually stepped
	// (including fork replay) — the honest denominator for throughput.
	// WarmstartCyclesSaved counts prefix cycles skipped by forking;
	// SynthesizedCycles counts cycles whose outcome was synthesized
	// (reconvergence tails, frozen drains and horizons) rather than
	// stepped. None of these alter the serialized report.
	SimulatedCycles      int64
	WarmstartCyclesSaved int64
	SynthesizedCycles    int64
	// FrontierRuns counts runs driven by the divergence-frontier delta
	// engine; TimelineBytes is the estimated memory footprint of the
	// golden-side per-window records: the signal transcripts and
	// window-end states backing the frontier plus the counter timelines
	// backing reconvergence. Neither alters the serialized report.
	FrontierRuns  int
	TimelineBytes int64
}

// worker holds the per-worker reusable state: a CloneInto target
// network (with its flit arena) and a golden.Log for indexing faulty
// ejections. Reusing these turns the per-fault allocation storm into a
// once-per-worker cost.
type worker struct {
	net  *sim.Network
	flog *golden.Log
}

// groupCtx is the per-injection-cycle golden context shared by every
// run injecting at that cycle: the golden snapshot to fork from (at the
// injection cycle on the fast engine, at cycle 0 on the exact engine),
// the golden fingerprint at the injection cycle (set only when the
// snapshot precedes it; each fork's replay is verified against it), the
// golden reference log and ForEVeR monitor of the fault-free
// continuation, the fault-free template, and the golden window records
// the divergence frontier and reconvergence use.
type groupCtx struct {
	cycle  int64
	snap   *sim.Network
	forkFP uint64

	goldenLog       *golden.Log
	gfv             *forever.Monitor
	goldenFvFP      bool
	goldenEjections int

	// tmpl is the fast engine's fault-free template: the result of the
	// golden continuation itself, classified like a faulty run.
	tmpl RunResult

	// rec, wend and tl drive the fast engine's post-injection window:
	// the golden continuation's per-link signal transcript, its full
	// state at the window-end boundary (for materializing the untouched
	// region of a run that needs its drain simulated), and its per-cycle
	// counters (the reconvergence precheck). All nil on the exact engine
	// or when the golden template is unsound; all shared read-only
	// across workers.
	rec  *sim.Recording
	wend *sim.Network
	tl   *golden.Timeline
}

// Run executes the campaign: one golden pass that builds a groupCtx per
// distinct injection cycle (see buildGroupCtx), then every fault group's
// run on the worker pool (see runOne).
func Run(opts Options) (*Report, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}

	// Distinct injection cycles, ascending. Each fault group carries its
	// own cycle (withDefaults enforced homogeneity within a group).
	var cycles []int64
	seen := make(map[int64]bool)
	for _, g := range o.FaultGroups {
		if !seen[g[0].Cycle] {
			seen[g[0].Cycle] = true
			cycles = append(cycles, g[0].Cycle)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })

	// Campaign span: the root of this process's span hierarchy unless a
	// job or shard span parents it. All span plumbing is nil-safe, so
	// the tracing-off path below is the old code plus dead branches.
	camp := o.Tracer.Start(o.TraceParent, "campaign", "campaign")

	// Golden mainline: one fault-free run stepped once from cycle 0 to
	// the last injection cycle, spawning one golden continuation per
	// injection cycle. The fast engine snapshots it at every injection
	// cycle, so no fork replays; the exact engine snapshots it once, at
	// cycle 0, so every run replays its whole prefix.
	mainline, err := sim.New(o.Sim, nil)
	if err != nil {
		camp.End()
		return nil, err
	}
	if !o.DisableForever {
		mainline.AttachMonitor(forever.NewMonitor(mainline.RouterConfig(), o.Forever))
	}
	snapCount := len(cycles)
	var base *sim.Network
	if o.exact() {
		snapCount = 1
		base = mainline.CloneInto(nil, nil)
	}
	gcOf := make(map[int64]*groupCtx, len(cycles))
	warm := camp.Child("phase", "golden-warmup")
	for ci, c := range cycles {
		for mainline.Cycle() < c {
			mainline.Step()
		}
		gc, err := buildGroupCtx(mainline, base, o, c, ci == len(cycles)-1)
		if err != nil {
			warm.End()
			camp.End()
			return nil, err
		}
		gcOf[c] = gc
	}
	var timelineBytes int64
	for _, gc := range gcOf {
		timelineBytes += gc.rec.ApproxFootprintBytes() + gc.tl.ApproxFootprintBytes()
		if gc.wend != nil {
			timelineBytes += gc.wend.ApproxFootprintBytes()
		}
	}
	first := gcOf[cycles[0]]
	// Snapshots carry no transcript, so all share one footprint.
	snapBytes := int64(snapCount) * first.snap.ApproxFootprintBytes()
	warm.SetAttr("injection_cycles", len(cycles))
	warm.SetAttr("snapshots", snapCount)
	warm.SetAttr("snapshot_bytes", snapBytes)
	warm.SetAttr("golden_cycle", mainline.Cycle())
	warm.End()

	report := &Report{
		Opts:                       o,
		GoldenEjections:            first.goldenEjections,
		GoldenForeverFalsePositive: first.goldenFvFP,
		Results:                    make([]RunResult, len(o.FaultGroups)),
		SnapshotCount:              snapCount,
		SnapshotBytes:              snapBytes,
		TimelineBytes:              timelineBytes,
	}

	var (
		wg           sync.WaitGroup
		progMu       sync.Mutex
		done         int
		fastHits     int
		reconvHits   int
		forkedRuns   int
		frontierRuns int
		simCycles    int64
		warmSaved    int64
		synthSaved   int64
		runErr       error
	)
	total := len(o.FaultGroups)
	var inst *instruments
	if o.Metrics != nil {
		inst = newInstruments(o.Metrics, o.Workers, total)
		o.Metrics.Gauge(MetricSnapshotBytes).Set(float64(snapBytes))
		o.Metrics.Gauge(MetricTimelineBytes).Set(float64(timelineBytes))
	}
	// Per-run wall clocks are only read when someone is listening; the
	// two time.Now calls are noise next to a run's milliseconds, but the
	// metrics-off path stays byte-for-byte the old loop.
	needTiming := inst != nil || o.OnResult != nil
	campaignStart := time.Now()
	jobs := make(chan int)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wk worker
			for i := range jobs {
				progMu.Lock()
				failed := runErr != nil
				progMu.Unlock()
				if failed {
					continue
				}
				var runStart time.Time
				if needTiming {
					runStart = time.Now()
				}
				var ro *runObs
				if o.Tracer != nil || o.FlightRecorder != nil {
					ro = &runObs{fr: o.FlightRecorder, idx: i}
					if o.Tracer.Sampled(i) {
						ro.span = camp.Child("run", fmt.Sprintf("run[%d]", i))
					}
				}
				res, exit, convCycles, st, err := runOne(&wk, gcOf[o.FaultGroups[i][0].Cycle], o, o.FaultGroups[i], ro)
				var wall time.Duration
				if needTiming {
					wall = time.Since(runStart)
				}
				if err != nil {
					ro.fail(err)
					progMu.Lock()
					if runErr == nil {
						runErr = err
					}
					progMu.Unlock()
					continue
				}
				ro.finish(&res, exit, convCycles, &st, o.FaultGroups[i][0].Cycle)
				report.Results[i] = res
				progMu.Lock()
				done++
				switch exit {
				case ExitFastPath:
					fastHits++
				case ExitReconverged:
					reconvHits++
				}
				if st.forked {
					forkedRuns++
				}
				if st.frontier {
					frontierRuns++
				}
				simCycles += st.simulated
				warmSaved += st.warmSaved
				synthSaved += st.synthesized
				if inst != nil {
					inst.observe(&report.Results[i], wall, exit, convCycles, &st, done, simCycles, time.Since(campaignStart))
				}
				if o.OnResult != nil {
					o.OnResult(i, &report.Results[i], wall, exit)
				}
				if o.Progress != nil {
					o.Progress(done, total)
				}
				progMu.Unlock()
			}
		}()
	}
	// Feed runs in injection-cycle order (stable within a cycle) so
	// consecutive runs share a snapshot and golden records that stay
	// warm in cache. Results remain input-indexed regardless of feed
	// order.
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return o.FaultGroups[order[a]][0].Cycle < o.FaultGroups[order[b]][0].Cycle
	})
	ctx := o.Context
	var ctxErr error
feed:
	for _, i := range order {
		select {
		case jobs <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if ctxErr != nil {
		camp.SetAttr("error", ctxErr.Error())
		camp.End()
		return nil, ctxErr
	}
	progMu.Lock()
	err = runErr
	progMu.Unlock()
	if err != nil {
		camp.SetAttr("error", err.Error())
		camp.End()
		return nil, err
	}
	report.FastPathHits = fastHits
	report.ReconvergedHits = reconvHits
	report.ForkedRuns = forkedRuns
	report.FrontierRuns = frontierRuns
	report.SimulatedCycles = simCycles
	report.WarmstartCyclesSaved = warmSaved
	report.SynthesizedCycles = synthSaved
	camp.SetAttr("runs", total)
	camp.SetAttr("fastpath_hits", fastHits)
	camp.SetAttr("reconverged_hits", reconvHits)
	camp.SetAttr("forked_runs", forkedRuns)
	camp.SetAttr("frontier_runs", frontierRuns)
	camp.SetAttr("cycles_simulated", simCycles)
	camp.SetAttr("cycles_synthesized", synthSaved)
	camp.SetAttr("warmstart_cycles_saved", warmSaved)
	camp.End()
	return report, nil
}

// buildGroupCtx runs the golden continuation for injection cycle c —
// the post-injection window (recording its transcript and counters on
// the fast engine), the drain, and the ForEVeR horizon — and derives
// everything runs at that cycle share. The mainline network itself
// continues for the last injection cycle; earlier cycles continue on a
// clone so the mainline can keep stepping toward the next fork point.
// The mainline must be at cycle c. base is the exact engine's cycle-0
// snapshot; nil (the fast engine) snapshots the mainline at c.
//
// On the fast engine the continuation is armed exactly like a fork at
// c with an empty fault plane — a fresh NoCAlert engine, ForEVeR's
// earlier flags cleared — so its own result is the fault-free template,
// and each injection cycle costs one fault-free simulation.
func buildGroupCtx(mainline, base *sim.Network, o Options, c int64, last bool) (*groupCtx, error) {
	// Only post-injection ejections are ever compared; dropping the
	// prefix keeps it out of the continuation clones.
	mainline.ResetEjections()
	gc := &groupCtx{cycle: c, snap: base}
	if base == nil {
		gc.snap = mainline.CloneInto(nil, nil)
	} else if base.Cycle() < c {
		gc.forkFP = mainline.Fingerprint()
	}

	cont := mainline
	if !last {
		cont = mainline.Clone(nil)
	}
	gc.gfv = findForever(cont)
	if gc.gfv != nil {
		gc.gfv.ClearDetections()
	}
	var eng *core.Engine
	exact := o.exact()
	if exact {
		cont.Run(o.PostInjectRun)
	} else {
		eng = core.NewEngine(cont.RouterConfig(), core.Options{Disabled: o.CheckersDisabled})
		cont.AttachMonitor(eng)
		// Record the golden window: the per-link signal transcript the
		// divergence frontier replays clean nodes from, and the per-cycle
		// counters a run whose frontier has emptied compares against.
		gc.tl = golden.NewTimeline(int(o.PostInjectRun))
		cont.StartRecording(int(o.PostInjectRun))
		for t := int64(0); t < o.PostInjectRun; t++ {
			cont.Step()
			gc.tl.Observe(cont, cont.Ejections())
		}
		gc.rec = cont.StopRecording()
		gc.wend = cont.CloneInto(nil, nil)
	}
	if !cont.Drain(o.DrainDeadline) {
		return nil, fmt.Errorf("campaign: fault-free golden run failed to drain by cycle %d (inflight=%d)",
			cont.Cycle(), cont.InFlight())
	}
	if !o.DisableForever {
		runHorizonExtra := foreverHorizon(cont.Cycle(), o.Forever)
		for cont.Cycle() < runHorizonExtra {
			cont.Step()
		}
	}
	gc.goldenLog = golden.FromEjections(cont.Ejections(), c)
	gc.goldenEjections = gc.goldenLog.Total()
	fd := int64(-1)
	if gc.gfv != nil {
		fd = gc.gfv.FirstDetectionAfter(c)
	}
	gc.goldenFvFP = fd >= 0
	if exact {
		return gc, nil
	}

	// Fault-free template for the fast path. A run whose faults provably
	// never fired is bit-identical to the continuation from the same
	// state, so its result is copied from this one instead of simulated
	// (slices are shared read-only across all fast-path results).
	gc.tmpl = newResult(eng, fault.NewPlane(), nil, golden.Compare(gc.goldenLog, gc.goldenLog, true), true, fd, c)

	// The frontier and reconvergence are only sound when the golden
	// continuation is clean: no NoCAlert assertion anywhere in the
	// fault-free template (so clean routers, which the frontier never
	// sweeps, can assert nothing, and freezing the engine at the
	// reconvergence cycle loses nothing), a benign golden-vs-golden
	// verdict, and — when ForEVeR is on — a golden monitor whose
	// detection list stayed under its cap (so the recorded tail is
	// complete). All of these hold for any sanely configured campaign;
	// if one does not, fired faults step the full mesh and take the
	// full path.
	sound := !gc.tmpl.Detected && gc.tmpl.Verdict.OK()
	if !o.DisableForever {
		sound = sound && gc.gfv != nil && len(gc.gfv.Detections()) < forever.DetectionCap
	}
	if !sound {
		gc.rec, gc.wend, gc.tl = nil, nil, nil
	}
	return gc, nil
}

// foreverHorizon returns the cycle up to which a run must continue so
// that ForEVeR's epoch mechanism has a chance to flag anomalies that
// materialized before the drain completed: the next epoch boundary
// plus one full epoch.
func foreverHorizon(cycle int64, o forever.Options) int64 {
	epoch := o.Epoch
	if epoch <= 0 {
		epoch = forever.DefaultOptions().Epoch
	}
	next := (cycle/epoch + 1) * epoch
	return next + epoch
}

func findForever(n *sim.Network) *forever.Monitor {
	for _, m := range n.Monitors() {
		if fv, ok := m.(*forever.Monitor); ok {
			return fv
		}
	}
	return nil
}

// runOne executes one fault group's run. The exact engine replays the
// prefix from the cycle-0 snapshot and simulates the rest end to end on
// every router, with no exit but the last. The fast engine forks from
// the golden snapshot at its injection cycle and steps the window with
// the fault's divergence frontier attached, so only its cone of
// influence is simulated and every other node is replayed from the
// golden transcript (see sim.Frontier). Each window cycle checks two
// exits: when every fault of the group provably expired without firing,
// the fault-free template result is returned (ExitFastPath) — exact
// because an inert plane's run is bit-identical to the fault-free
// continuation from the same forked state; and when the plane is
// quiescent, the frontier has shrunk to empty with a clean ejection
// history and the counters agree with golden's, the faulty run is back
// in golden's state, so the rest of the result is synthesized
// (ExitReconverged). A run still divergent at window end materializes
// its untouched region from the golden window-end state and finishes
// (drain, horizon, verdict) as a plain full simulation. convCycles is
// the reconvergence latency (cycles after injection); zero for the
// other exit paths.
func runOne(w *worker, gc *groupCtx, o Options, group []fault.Fault, ro *runObs) (res RunResult, exit ExitPath, convCycles int64, st runStats, err error) {
	n, plane, eng, fv, err := beginRun(w, gc, o, group, &st, ro)
	if err != nil {
		return res, ExitFull, 0, st, err
	}
	fast := !o.exact()
	var fr *sim.Frontier
	if gc.rec != nil {
		seeds := make([]int, 0, len(group))
		for _, ft := range group {
			seeds = append(seeds, ft.Site.Router)
		}
		fr = sim.NewFrontier(n, gc.rec, seeds)
		st.frontier = true
	}
	fa := ro.phase("fault-armed")
	for t := int64(0); t < o.PostInjectRun; t++ {
		n.Step()
		if fast && n.FaultsInert() {
			res = gc.tmpl
			res.Fault = group[0]
			res.Group = group
			st.simulated = n.Cycle() - gc.snap.Cycle()
			st.horizon = n.Cycle()
			st.noteFrontier(fr)
			fa.End()
			return res, ExitFastPath, 0, st, nil
		}
		if fr == nil || !n.FaultsQuiescent() || !fr.Empty() || !fr.Clean() {
			continue
		}
		pt, ok := gc.tl.At(n.Cycle())
		if !ok || !countersMatch(n, &pt) {
			continue
		}
		ro.event("frontier_empty", n.Cycle(), "reconverged", nil)
		st.simulated = n.Cycle() - gc.snap.Cycle()
		st.synthesized += gc.cycle + o.PostInjectRun - n.Cycle()
		st.horizon = gc.cycle + o.PostInjectRun
		st.noteFrontier(fr)
		fa.End()
		rt := ro.phase("reconverged-tail")
		rt.SetAttr("reconverged_cycle", n.Cycle())
		rt.SetAttr("cycles_synthesized", gc.cycle+o.PostInjectRun-n.Cycle())
		rt.End()
		return synthesizeReconverged(n, eng, fv, gc, plane, group),
			ExitReconverged, n.Cycle() - gc.cycle, st, nil
	}
	fa.End()
	if fr != nil {
		st.noteFrontier(fr)
		fr.MaterializeAll(gc.wend)
	}
	res = finishRun(n, eng, fv, plane, gc, o, group, w, &st, ro)
	st.simulated = n.Cycle() - gc.snap.Cycle()
	return res, ExitFull, 0, st, nil
}

// countersMatch compares the network-level counters an empty frontier
// does not cover with golden's at the same boundary: the packet id
// stream and the flit and ejection counts.
func countersMatch(n *sim.Network, pt *golden.TimelinePoint) bool {
	return n.FlitsInjected() == pt.FlitsInjected &&
		n.FlitsEjected() == pt.FlitsEjected &&
		n.NextPacketID() == pt.NextPkt &&
		len(n.Ejections()) == pt.Ejections
}

// synthesizeReconverged builds the run's result at the reconvergence
// cycle without simulating the rest of the window, the drain or the
// ForEVeR horizon. Soundness: an empty frontier means every node holds
// golden's state (up to the per-node fold), and a clean ejection
// history plus matching counters mean the faulty run's past delivered
// exactly golden's flits — so its future will replay golden's cycles
// bit for bit. Hence the verdict is the benign golden-vs-golden
// verdict; the drain succeeds exactly as golden's did; the NoCAlert
// engine — whose checkers are purely combinational per cycle — can
// assert nothing in the golden replay (the fault-free template run
// detected nothing, a precondition buildGroupCtx checks), so its
// aggregates are already final; and ForEVeR's counter state, a
// function of the injection and ejection histories alone, equals the
// golden monitor's, so its future flags are the golden monitor's
// recorded tail.
func synthesizeReconverged(n *sim.Network, eng *core.Engine, fv *forever.Monitor, gc *groupCtx, plane *fault.Plane, group []fault.Fault) RunResult {
	fd := int64(-1)
	if fv != nil {
		// Flags the faulty monitor raised during the divergent window
		// come first; past the reconvergence cycle the faulty run would
		// flag exactly when the golden monitor did, so the recorded
		// golden tail completes the picture.
		fd = fv.FirstDetectionAfter(gc.cycle)
		if fd < 0 && gc.gfv != nil {
			fd = gc.gfv.FirstDetectionAfter(n.Cycle())
		}
	}
	return newResult(eng, plane, group, gc.tmpl.Verdict, true, fd, gc.cycle)
}

// newResult classifies a finished run: the golden verdict, the drain
// outcome, NoCAlert's and Cautious mode's detections from the engine,
// and ForEVeR's first detection fd (-1 for none or no monitor), all
// relative to the injection cycle.
func newResult(eng *core.Engine, plane *fault.Plane, group []fault.Fault, verdict golden.Verdict, drained bool, fd, injectCycle int64) RunResult {
	malicious := !verdict.OK()
	res := RunResult{
		Group:   group,
		Verdict: verdict,
		Drained: drained,

		Detected:    eng.Detected(),
		DetectCycle: eng.FirstDetection(),

		CheckersFired:      eng.FiredCheckers(),
		FirstCycleCheckers: eng.FirstCycleCheckers(),
		SimultaneityHist:   eng.SimultaneityHistogram(),

		Latency:         -1,
		CautiousLatency: -1,
		ForeverLatency:  -1,
	}
	for i := range group {
		if plane.FiredAt(i) >= 0 {
			res.Fired = true
			break
		}
	}
	if len(group) > 0 {
		res.Fault = group[0]
	}
	res.Outcome = classify(res.Detected, malicious)
	if res.Detected {
		res.Latency = res.DetectCycle - injectCycle
	}
	res.CautiousDetected = eng.FirstHighRiskDetection() >= 0
	res.CautiousOutcome = classify(res.CautiousDetected, malicious)
	if res.CautiousDetected {
		res.CautiousLatency = eng.FirstHighRiskDetection() - injectCycle
	}
	res.ForeverDetected = fd >= 0
	res.ForeverOutcome = classify(res.ForeverDetected, malicious)
	if res.ForeverDetected {
		res.ForeverLatency = fd - injectCycle
	}
	return res
}

// beginRun forks the run's network at its injection cycle (the warm-start
// phase), arms group's fault plane on it, and attaches a fresh NoCAlert
// engine; the ForEVeR monitor forked from golden has its detections
// cleared.
func beginRun(w *worker, gc *groupCtx, o Options, group []fault.Fault, st *runStats, ro *runObs) (*sim.Network, *fault.Plane, *core.Engine, *forever.Monitor, error) {
	plane := fault.NewPlane(group...)
	ws := ro.phase("warm-start")
	n, err := w.fork(gc, plane, st, ro)
	if err != nil {
		ws.End()
		return nil, nil, nil, nil, err
	}
	ws.SetAttr("fork_cycle", gc.snap.Cycle())
	ws.SetAttr("replayed_cycles", gc.cycle-gc.snap.Cycle())
	ws.End()
	eng := core.NewEngine(n.RouterConfig(), core.Options{Disabled: o.CheckersDisabled})
	n.AttachMonitor(eng)
	fv := findForever(n)
	if fv != nil {
		fv.ClearDetections()
	}
	return n, plane, eng, fv, nil
}

// finishRun drains the network, runs out the ForEVeR horizon, and
// classifies the run against the golden reference. The horizon run-out
// exists only to give ForEVeR's epoch check a chance to flag anomalies
// after the drain, so it is skipped when no monitor is attached and the
// drain succeeded (an undrained network still steps to the horizon: the
// extra cycles can surface NoCAlert assertions on stuck traffic).
//
// On the fast engine (the exact engine switches the probe off), both
// phases probe for a frozen fixed point
// (see ffProbe) and synthesize the remainder exactly instead of
// stepping it: a frozen non-quiet network can never drain, so the drain
// verdict is the deadline miss it was headed for; a frozen network
// steps identically through the rest of the horizon, so all that is
// left to compute is ForEVeR's epoch-boundary arithmetic (projected
// from the frozen counters without mutating the monitor) and the
// NoCAlert accumulators (the steady assertion pattern, replayed via
// ffProbe.extend — a deadlocked router that keeps asserting still
// freezes, it just fast-forwards its assertions along with its state).
func finishRun(n *sim.Network, eng *core.Engine, fv *forever.Monitor, plane *fault.Plane, gc *groupCtx, o Options, group []fault.Fault, w *worker, st *runStats, ro *runObs) RunResult {
	var drained, frozen bool
	projectUntil := int64(-1)
	probe := ffProbe{off: o.exact()}
	n.StopInjection()
	dr := ro.phase("drain")
	drainEnd := n.Cycle() + o.DrainDeadline
	for n.Cycle() < drainEnd {
		if n.Quiet() {
			drained = true
			break
		}
		if probe.frozen(n, eng, fv) {
			frozen = true
			break
		}
		n.Step()
	}
	if !drained && !frozen {
		drained = n.Quiet()
	}
	if frozen {
		ro.event("ff_freeze", n.Cycle(), "frozen in drain", nil)
	}
	dr.SetAttr("drained", drained)
	dr.SetAttr("frozen", frozen)
	dr.End()
	logical := n.Cycle()
	if frozen {
		// A frozen, non-quiet network would have stepped unchanged
		// to the deadline and missed it.
		st.synthesized += drainEnd - n.Cycle()
		logical = drainEnd
	}
	if fv != nil || !drained {
		hz := ro.phase("horizon")
		horizon := foreverHorizon(logical, o.Forever)
		if !frozen {
			for n.Cycle() < horizon {
				if probe.frozen(n, eng, fv) {
					frozen = true
					ro.event("ff_freeze", n.Cycle(), "frozen in horizon", nil)
					break
				}
				n.Step()
			}
		}
		if frozen {
			st.synthesized += horizon - max(n.Cycle(), logical)
			projectUntil = horizon
		}
		hz.SetAttr("horizon_cycle", horizon)
		hz.SetAttr("frozen", frozen)
		hz.End()
	}
	if frozen {
		// The frozen state re-emits its assertion pattern on every
		// synthesized cycle; fold all of them into the engine so the
		// accumulators match a full simulation to the horizon.
		probe.extend(eng, projectUntil-n.Cycle())
		ff := ro.phase("fast-forward")
		ff.SetAttr("frozen_cycle", n.Cycle())
		ff.SetAttr("project_until", projectUntil)
		ff.SetAttr("cycles_synthesized", st.synthesized)
		ff.End()
	}
	// The logical end cycle this run's accounting covers: with a frozen
	// fast-forward the synthesized remainder runs to projectUntil,
	// otherwise the network really stepped to its final cycle. Callers
	// set st.simulated from the same n.Cycle(), closing the invariant
	// warmSaved + simulated + synthesized == horizon.
	if projectUntil >= 0 {
		st.horizon = projectUntil
	} else {
		st.horizon = n.Cycle()
	}

	w.flog = golden.FromEjectionsInto(w.flog, n.Ejections(), gc.cycle)
	verdict := golden.Compare(gc.goldenLog, w.flog, drained)
	fd := int64(-1)
	if fv != nil {
		fd = fv.FirstDetectionAfter(gc.cycle)
		if fd < 0 && projectUntil >= 0 {
			// The frozen state replays identically through [n.Cycle(),
			// projectUntil): only the epoch-boundary checks remain.
			fd = fv.ProjectFrozenDetection(n.Cycle(), projectUntil)
		}
	}
	return newResult(eng, plane, group, verdict, drained, fd, gc.cycle)
}

// SampleFaults draws n distinct single-bit transient faults injecting
// at cycle, uniformly over every fault location of the mesh (or all of
// them when n is 0 or exceeds the population). The draw is
// deterministic in seed. Sparse draws (2n < population) sample global
// bit indices directly instead of materializing one Fault per location,
// so sampling a few hundred faults from a large mesh stays O(sites+n)
// rather than O(population).
func SampleFaults(p fault.Params, n int, seed uint64, cycle int64) []fault.Fault {
	sites := p.EnumerateSites()
	prefix := make([]int, len(sites)+1)
	for i, s := range sites {
		prefix[i+1] = prefix[i] + s.Width
	}
	total := prefix[len(sites)]
	if n <= 0 || n >= total {
		all := make([]fault.Fault, 0, total)
		for _, s := range sites {
			all = append(all, fault.BitFaults(s, cycle, fault.Transient)...)
		}
		return all
	}
	g := rng.New(seed, 0xfa17)
	idx := make([]int, 0, n)
	if 2*n >= total {
		// Dense draw: a permutation prefix is cheaper than rejection
		// sampling when we want a large fraction of the population.
		idx = append(idx, g.Perm(total)[:n]...)
	} else {
		seen := make(map[int]struct{}, n)
		for len(idx) < n {
			v := g.Intn(total)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			idx = append(idx, v)
		}
	}
	out := make([]fault.Fault, len(idx))
	for i, v := range idx {
		si := sort.SearchInts(prefix, v+1) - 1
		s := sites[si]
		out[i] = fault.Fault{Site: s, Bit: v - prefix[si], Cycle: cycle, Type: fault.Transient}
	}
	return out
}
