package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"nocalert"
)

// execution is one timed RunCampaign call.
type execution struct {
	set     int                      // index of the campaign in the run's set
	traced  bool                     // ran with a span tracer
	wall    time.Duration            // the whole RunCampaign call
	setup   time.Duration            // from the call to the start of the first run
	faults  int                      // fault runs in the campaign
	peakMB  float64                  // peak resident set during the call
	report  *nocalert.CampaignReport // dropped after checking unless traced
	runWall []time.Duration          // per run, by fault index
	exit    []nocalert.CampaignExitPath
	spans   []nocalert.SpanRecord // traced executions only
}

// execute runs one campaign through the public API as a user does. The
// OnResult callback only stores the run's wall time and exit path, so
// it adds no work the campaign would not do for any listener.
func execute(set int, opts nocalert.CampaignOptions, traced bool) (*execution, error) {
	n := len(opts.Faults)
	ex := &execution{set: set, traced: traced, setup: -1, faults: n,
		runWall: make([]time.Duration, n), exit: make([]nocalert.CampaignExitPath, n)}
	var spanBuf bytes.Buffer
	var tracer *nocalert.Tracer
	if traced {
		tracer = nocalert.NewTracer(nocalert.TracerOptions{Writer: &spanBuf, Service: "campaignbench"})
	}
	opts.Tracer = tracer
	var start time.Time
	opts.OnResult = func(i int, _ *nocalert.CampaignResult, wall time.Duration, exit nocalert.CampaignExitPath) {
		if ex.setup < 0 {
			ex.setup = time.Since(start) - wall
		}
		ex.runWall[i] = wall
		ex.exit[i] = exit
	}
	start = time.Now()
	rep, err := nocalert.RunCampaign(opts)
	ex.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("campaign %d: %w", set, err)
	}
	ex.report = rep
	if traced {
		if err := tracer.Close(); err != nil {
			return nil, fmt.Errorf("campaign %d: span stream: %w", set, err)
		}
		if ex.spans, err = nocalert.ReadSpans(&spanBuf); err != nil {
			return nil, fmt.Errorf("campaign %d: span stream: %w", set, err)
		}
	}
	return ex, nil
}

// measure makes one pass over the run's campaigns, one at a time, in
// the run's mode, then keeps executing them round-robin until budget has
// elapsed. A traced run spends the remaining time on pairs of untraced
// and traced executions of one campaign, in alternating order, at least
// two pairs, from which the tracing overhead is measured. Every
// execution goes through chk; a campaign that fails is counted there
// and not timed.
func measure(out io.Writer, sets []nocalert.CampaignOptions, budget time.Duration, traced bool, chk *checker) []*execution {
	var exs []*execution
	start := time.Now()
	run := func(k int, tr bool) {
		// Start every campaign from a collected heap whose free memory is
		// back with the OS, as in a fresh process, so neither its time nor
		// the peak memory depends on what earlier campaigns left, or on how
		// many ran before it.
		debug.FreeOSMemory()
		resetPeakRSS()
		ex, err := execute(k, sets[k], tr)
		peak := peakRSSMB()
		if !chk.check(k, len(sets[k].Faults), ex, err) {
			return
		}
		ex.peakMB = peak
		fmt.Fprintf(out, "  campaign %2d traced=%-5v %5d faults  wall %8.3f s  set-up %7.3f s  %8.2f faults/s  peak %6.1f MB\n",
			k, tr, ex.faults, ex.wall.Seconds(), ex.setup.Seconds(), float64(ex.faults)/ex.wall.Seconds(), peak)
		// Only the traced breakdown reads reports. Keeping the others
		// would grow the benchmark's own heap with every execution, and
		// peak_mem_mb with it.
		if !tr {
			ex.report = nil
		}
		exs = append(exs, ex)
	}
	for k := range sets {
		run(k, traced)
	}
	for i := 0; time.Since(start) < budget || (traced && i < 2); i++ {
		k := i % len(sets)
		if traced {
			run(k, i%2 == 1)
			run(k, i%2 == 0)
		} else {
			run(k, false)
		}
	}
	return exs
}

// summary is the end-to-end view of a set of executions in one mode.
type summary struct {
	faultsPerSec float64
	faultMS      float64
	setupS       float64
	peakMemMB    float64
	executions   int
}

// summarize takes, per campaign of the set (or of only, when not nil),
// the median wall and set-up time over its executions in the given
// mode, and relates the sums to the faults of those campaigns, so a
// campaign that ran more often does not weigh more. setupS is the
// median set-up time over every execution. peakMemMB is the median over
// the campaigns of their median peak resident set: what a process that
// runs one campaign of the set typically reaches.
func summarize(exs []*execution, traced bool, only map[int]bool) summary {
	walls := map[int][]float64{}
	setups := map[int][]float64{}
	peaks := map[int][]float64{}
	faults := map[int]int{}
	var all []float64
	for _, ex := range exs {
		if ex.traced != traced || (only != nil && !only[ex.set]) {
			continue
		}
		walls[ex.set] = append(walls[ex.set], ex.wall.Seconds())
		setups[ex.set] = append(setups[ex.set], ex.setup.Seconds())
		peaks[ex.set] = append(peaks[ex.set], ex.peakMB)
		faults[ex.set] = ex.faults
		all = append(all, ex.setup.Seconds())
	}
	var wall, setup float64
	var n int
	var peak []float64
	for k, w := range walls {
		wall += median(w)
		setup += median(setups[k])
		peak = append(peak, median(peaks[k]))
		n += faults[k]
	}
	return summary{
		faultsPerSec: float64(n) / wall,
		faultMS:      (wall - setup) / float64(n) * 1000,
		setupS:       median(all),
		peakMemMB:    median(peak),
		executions:   len(all),
	}
}
