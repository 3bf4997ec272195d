package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// diffCase is one configuration of the fast-vs-exact differential test:
// sim tweaks the network before the universe is sampled (the VC count
// shapes the fault sites), faults tweaks the sampled universe.
type diffCase struct {
	name   string
	sim    func(*sim.Config)
	faults func(*Options)
}

// diffCases covers the routing algorithms, VC counts, buffer types,
// traffic patterns and fault types the simulator ships, beyond the
// default XY / 4-VC / uniform / transient configuration the committed
// fixtures pin.
var diffCases = []diffCase{
	{name: "default"},
	// The adaptive algorithms only leave XY's paths under congestion.
	{name: "westfirst", sim: func(c *sim.Config) { c.Router.Alg, c.InjectionRate = routing.WestFirst{}, 0.3 }},
	{name: "adaptive", sim: func(c *sim.Config) { c.Router.Alg, c.InjectionRate = routing.Adaptive{}, 0.3 }},
	{name: "vcs2", sim: func(c *sim.Config) { c.Router.VCs = 2 }},
	{name: "nonatomic", sim: func(c *sim.Config) { c.Router.AtomicVC = false }},
	{name: "transpose", sim: func(c *sim.Config) { c.Pattern = traffic.Transpose{} }},
	{name: "hotspot", sim: func(c *sim.Config) { c.Pattern = traffic.NewHotspot([]int{5, 10}, 0.3) }},
	{name: "permanent", faults: func(o *Options) {
		for i := range o.Faults {
			o.Faults[i].Type = fault.Permanent
		}
	}},
	{name: "intermittent", faults: func(o *Options) {
		for i := range o.Faults {
			o.Faults[i].Type = fault.Intermittent
			o.Faults[i].Period, o.Faults[i].Duty = 16, 3
		}
	}},
	{name: "group", faults: func(o *Options) {
		for i := 0; i+3 <= len(o.Faults); i += 3 {
			o.FaultGroups = append(o.FaultGroups, o.Faults[i:i+3])
		}
	}},
	{name: "inject-0-300", faults: func(o *Options) {
		for i := range o.Faults {
			o.Faults[i].Cycle = []int64{0, 300}[i%2]
		}
	}},
}

// diffOptions builds one small 4×4 campaign of the differential test.
func diffOptions(tc diffCase) Options {
	cfg := sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.12, Seed: 3}
	if tc.sim != nil {
		tc.sim(&cfg)
	}
	rc := cfg.Router
	params := fault.Params{Mesh: rc.Mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	o := Options{
		Sim:           cfg,
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 4000,
		Forever:       forever.Options{Epoch: 400, HopLatency: 1},
		Faults:        SampleFaults(params, 24, 7, 300),
	}
	if tc.faults != nil {
		tc.faults(&o)
	}
	return o
}

// TestFastExactDifferential runs each configuration on both engines and
// requires byte-identical reports and equal per-run results. The exact
// engine is plain full simulation, so every shortcut of the fast engine
// — fork, fast path, frontier, reconvergence, fast-forward and the
// structure-of-arrays sweep — is checked against it at once.
func TestFastExactDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	var total Report
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := Run(diffOptions(tc))
			if err != nil {
				t.Fatal(err)
			}
			eo := diffOptions(tc)
			eo.DisableFastPath = true
			exact, err := Run(eo)
			if err != nil {
				t.Fatal(err)
			}
			if exact.FastPathHits != 0 || exact.ReconvergedHits != 0 || exact.ForkedRuns != 0 ||
				exact.FrontierRuns != 0 || exact.SynthesizedCycles != 0 || exact.WarmstartCyclesSaved != 0 {
				t.Fatalf("exact engine took a shortcut: fastpath %d, reconverged %d, forked %d, frontier %d, synthesized %d, warm-start saved %d",
					exact.FastPathHits, exact.ReconvergedHits, exact.ForkedRuns,
					exact.FrontierRuns, exact.SynthesizedCycles, exact.WarmstartCyclesSaved)
			}
			if got, want := reportBytes(t, fast), reportBytes(t, exact); !bytes.Equal(got, want) {
				t.Fatalf("reports differ between the fast and exact engines (%d vs %d bytes)", len(got), len(want))
			}
			for i := range fast.Results {
				// Verdict.Reasons order follows map iteration; everything
				// else must match exactly.
				fr, er := fast.Results[i], exact.Results[i]
				if len(fr.Verdict.Reasons) != len(er.Verdict.Reasons) {
					t.Fatalf("result %d reason count differs: %d vs %d", i, len(fr.Verdict.Reasons), len(er.Verdict.Reasons))
				}
				fr.Verdict.Reasons, er.Verdict.Reasons = nil, nil
				if !reflect.DeepEqual(fr, er) {
					t.Fatalf("result %d (%v) differs between engines:\nfast:  %+v\nexact: %+v", i, &fr.Fault, fr, er)
				}
			}
			if tc.name == "inject-0-300" && (fast.ForkedRuns == 0 || fast.WarmstartCyclesSaved == 0) {
				t.Fatalf("no run warm-started above cycle 0 (forked %d, saved %d); the multi-cycle premise is broken",
					fast.ForkedRuns, fast.WarmstartCyclesSaved)
			}
			t.Logf("fast engine: %d runs, fastpath %d, reconverged %d, frontier %d, synthesized %d cycles",
				len(fast.Results), fast.FastPathHits, fast.ReconvergedHits, fast.FrontierRuns, fast.SynthesizedCycles)
			total.FastPathHits += fast.FastPathHits
			total.ReconvergedHits += fast.ReconvergedHits
			total.FrontierRuns += fast.FrontierRuns
			total.SynthesizedCycles += fast.SynthesizedCycles
		})
	}
	// Each reconverged run synthesizes less than one window, so cycles
	// beyond that bound were synthesized by frozen-state fast-forward.
	fastForwarded := total.SynthesizedCycles > int64(total.ReconvergedHits)*400
	if total.FastPathHits == 0 || total.ReconvergedHits == 0 || total.FrontierRuns == 0 || !fastForwarded {
		t.Fatalf("the fast engine never took some shortcut (fastpath %d, reconverged %d, frontier %d, synthesized %d); the differential premise is broken",
			total.FastPathHits, total.ReconvergedHits, total.FrontierRuns, total.SynthesizedCycles)
	}
}

// TestEngineAliasesSelectExact pins the engine switch: DisableFastPath
// and each of its aliases select the exact engine, which runs the
// reference sweep, and the zero Options select the fast engine.
func TestEngineAliasesSelectExact(t *testing.T) {
	base := Options{Faults: []fault.Fault{{}}}
	if base.exact() {
		t.Fatal("zero Options select the exact engine")
	}
	for name, set := range map[string]func(*Options){
		"DisableFastPath":      func(o *Options) { o.DisableFastPath = true },
		"DisableReconvergence": func(o *Options) { o.DisableReconvergence = true },
		"DisableFork":          func(o *Options) { o.DisableFork = true },
		"DisableFastForward":   func(o *Options) { o.DisableFastForward = true },
		"DisableFrontier":      func(o *Options) { o.DisableFrontier = true },
		"Sim.DisableSoA":       func(o *Options) { o.Sim.DisableSoA = true },
	} {
		o := base
		set(&o)
		d, err := o.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if !d.exact() || !d.Sim.DisableSoA {
			t.Errorf("%s: exact=%v, reference sweep=%v; want both", name, d.exact(), d.Sim.DisableSoA)
		}
	}
}
