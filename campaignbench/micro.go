package main

import (
	"time"

	"nocalert"
	"nocalert/internal/core"
	"nocalert/internal/forever"
	"nocalert/internal/golden"
	"nocalert/internal/sim"
)

// sink keeps the compiler from discarding timed calls whose results are
// otherwise unused.
var sink uint64

// interleaved runs the timed functions in turn, round after round,
// until there have been at least 5 rounds and 300 ms per function (at
// most 200 rounds), and returns each function's seconds by round.
// Interleaving lets differences between them be taken round by round,
// under the same host conditions.
func interleaved(fns ...func() time.Duration) [][]float64 {
	out := make([][]float64, len(fns))
	start := time.Now()
	budget := time.Duration(len(fns)) * 300 * time.Millisecond
	for r := 0; r < 5 || (time.Since(start) < budget && r < 200); r++ {
		for i, fn := range fns {
			out[i] = append(out[i], fn().Seconds())
		}
	}
	return out
}

// repeat returns the median seconds of fn over interleaved rounds.
func repeat(fn func() time.Duration) float64 { return median(interleaved(fn)[0]) }

// diffMedian is the median of the round-by-round differences a - b.
func diffMedian(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// micro times the public functions of the simulator, golden-reference,
// checker and ForEVeR layers on the workload's own network
// configuration and seed, from the golden state at its last injection
// cycle: the calls a campaign makes for every fault (fork, window step,
// drain, verdict) and once per campaign (recorded golden window,
// timeline).
func micro(w *workload, opts nocalert.CampaignOptions, m metrics) error {
	// The golden state at the last injection cycle, without and with the
	// ForEVeR monitor the campaign's golden mainline carries from cycle 0.
	last := w.inject[len(w.inject)-1]
	base, err := sim.New(opts.Sim, nil)
	if err != nil {
		return err
	}
	base.Run(last)
	baseFV := sim.MustNew(opts.Sim, nil)
	baseFV.AttachMonitor(forever.NewMonitor(baseFV.RouterConfig(), opts.Forever))
	baseFV.Run(last)
	perRouterStep := func(s float64) float64 { return s * 1e9 / (postRun * float64(base.Mesh().Nodes())) }
	var n *sim.Network

	// window runs the post-injection window on a fresh fork of from, with
	// hooks before the clock starts and after it stops.
	window := func(from *sim.Network, before func(*sim.Network), after func(*sim.Network)) func() time.Duration {
		return func() time.Duration {
			n = from.CloneInto(n, nil)
			before(n)
			t := time.Now()
			n.Run(postRun)
			d := time.Since(t)
			after(n)
			return d
		}
	}
	none := func(*sim.Network) {}
	steps := interleaved(
		window(base, none, none),
		window(base, func(n *sim.Network) { n.StartRecording(postRun) }, func(n *sim.Network) { n.StopRecording() }),
		window(base, func(n *sim.Network) { n.AttachMonitor(core.NewEngine(n.RouterConfig(), core.Options{})) }, none),
		window(baseFV, none, none),
	)
	m.set("sim.step_ns_per_router", perRouterStep(median(steps[0])), "ns")
	m.set("sim.record_step_ns_per_router", perRouterStep(median(steps[1])), "ns")
	m.set("core.step_overhead_ns_per_router", perRouterStep(diffMedian(steps[2], steps[0])), "ns")
	m.set("forever.step_overhead_ns_per_router", perRouterStep(diffMedian(steps[3], steps[0])), "ns")

	clone := repeat(func() time.Duration {
		t := time.Now()
		n = base.CloneInto(n, nil)
		return time.Since(t)
	})
	m.set("sim.clone_us", clone*1e6, "us")
	fp := repeat(func() time.Duration {
		t := time.Now()
		sink += base.Fingerprint()
		return time.Since(t)
	})
	m.set("sim.fingerprint_us", fp*1e6, "us")
	sfp := repeat(func() time.Duration {
		t := time.Now()
		sink += base.StaticFingerprint()
		return time.Since(t)
	})
	m.set("sim.static_fingerprint_us", sfp*1e6, "us")

	// Timeline.Observe once per window cycle, as the golden pass does.
	observe := repeat(func() time.Duration {
		tl := golden.NewTimeline(postRun)
		n = base.CloneInto(n, nil)
		var d time.Duration
		for i := 0; i < postRun; i++ {
			n.Step()
			t := time.Now()
			tl.Observe(n, n.Ejections())
			d += time.Since(t)
		}
		return d / postRun
	})
	m.set("golden.observe_us", observe*1e6, "us")

	// Drain from the golden window-end state, then build and compare
	// the golden-reference logs of what it delivered.
	wend := base.Clone(nil)
	wend.Run(postRun)
	drain := repeat(func() time.Duration {
		n = wend.CloneInto(n, nil)
		t := time.Now()
		n.Drain(drainMax)
		return time.Since(t)
	})
	m.set("sim.drain_ms", drain*1000, "ms")
	drained := wend.Clone(nil)
	drained.Drain(drainMax)
	ejs := drained.Ejections()
	var lg *golden.Log
	build := repeat(func() time.Duration {
		t := time.Now()
		lg = golden.FromEjections(ejs, last)
		return time.Since(t)
	})
	m.set("golden.log_build_us", build*1e6, "us")
	ref := golden.FromEjections(ejs, last)
	cmp := repeat(func() time.Duration {
		t := time.Now()
		v := golden.Compare(ref, lg, true)
		d := time.Since(t)
		if v.OK() {
			sink++
		}
		return d
	})
	m.set("golden.compare_us", cmp*1e6, "us")
	return nil
}
