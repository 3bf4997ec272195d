package main

import (
	"fmt"
	"runtime"

	"nocalert"
)

// Settings every workload shares: the paper's router (4 VCs), 500
// cycles of traffic after the fault, a 10000-cycle drain deadline and a
// 1500-cycle ForEVeR epoch.
const (
	vcs      = 4
	postRun  = 500
	drainMax = 10000
	epoch    = 1500
)

// A workload is one kind of fault-injection campaign. A run of it with
// seed s measures a fixed set of campaigns derived from s (see
// inputs), so the same seed always measures the same fault universes.
// README.md records why each workload exists and which layer it puts
// in charge.
type workload struct {
	name     string
	mesh     int     // the mesh is mesh × mesh routers
	rate     float64 // offered load, flits/node/cycle
	inject   []int64 // injection cycles, assigned round-robin over the sample
	faults   int     // universe size of one campaign
	sets     int     // distinct campaigns per run
	parallel bool    // one worker per CPU instead of one worker
}

var workloads = []workload{
	{name: "mesh8-sparse", mesh: 8, rate: 0.05, inject: []int64{300}, faults: 500, sets: 12},
	// Too unsteady between seeds for BENCHMARK.json; run by hand (README.md).
	{name: "mesh8-saturated", mesh: 8, rate: 0.25, inject: []int64{300}, faults: 100, sets: 6},
	{name: "mesh16-drain", mesh: 16, rate: 0.02, inject: []int64{300}, faults: 200, sets: 8},
	{name: "mesh8-multicycle", mesh: 8, rate: 0.05, inject: []int64{0, 16000, 32000}, faults: 600, sets: 8, parallel: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w *workload) workers() int {
	if w.parallel {
		return runtime.NumCPU()
	}
	return 1
}

// campaignSeed is the seed of the k-th campaign of a run with seed s.
// Campaign 0 uses s itself, so it is the campaign
// `faultcampaign -seed s` runs with the same settings.
func campaignSeed(s uint64, k int) uint64 { return s + uint64(k)<<32 }

// inputs returns the campaigns a run with seed s measures, without
// callbacks or tracer. Each has its own traffic seed and its own
// uniform fault sample, both from campaignSeed(s, k).
func (w *workload) inputs(s uint64) []nocalert.CampaignOptions {
	m := nocalert.NewMesh(w.mesh, w.mesh)
	rc := nocalert.DefaultRouterConfig(m)
	rc.VCs = vcs
	params := nocalert.FaultParamsFor(&rc)
	out := make([]nocalert.CampaignOptions, w.sets)
	for k := range out {
		seed := campaignSeed(s, k)
		faults := nocalert.SampleFaults(params, w.faults, seed, w.inject[0])
		for i := range faults {
			faults[i].Cycle = w.inject[i%len(w.inject)]
		}
		out[k] = nocalert.CampaignOptions{
			Sim:           nocalert.SimConfig{Router: rc, InjectionRate: w.rate, Seed: seed},
			InjectCycle:   w.inject[0],
			PostInjectRun: postRun,
			DrainDeadline: drainMax,
			Forever:       nocalert.ForeverOptions{Epoch: epoch, HopLatency: 1},
			Faults:        faults,
			Workers:       w.workers(),
		}
	}
	return out
}
