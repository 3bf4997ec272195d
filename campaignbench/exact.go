package main

import "nocalert"

// exactSample is how many runs of each checked campaign crossCheck
// repeats without shortcuts.
const exactSample = 3

// crossCheck re-runs an evenly spread sample of the campaign's faults
// with every shortcut off — no fast path, reconvergence, frontier,
// forking or fast-forward, and the reference sweep engine — and
// requires each to give the result the measured campaign gave, so
// seeds without a pinned reference are still checked against plain full
// simulation. It runs after timing, so it costs no measured time.
func (c *checker) crossCheck(k int, opts nocalert.CampaignOptions) {
	want := c.want[k]
	if want == nil {
		return
	}
	n := len(opts.Faults)
	idx := make([]int, 0, exactSample)
	for j := 0; j < exactSample && j < n; j++ {
		idx = append(idx, j*n/exactSample+n/(2*exactSample))
	}
	o := opts
	o.Faults = make([]nocalert.Fault, len(idx))
	for j, i := range idx {
		o.Faults[j] = opts.Faults[i]
	}
	o.DisableFastPath, o.DisableReconvergence, o.DisableFrontier = true, true, true
	o.DisableFork, o.DisableFastForward, o.Sim.DisableSoA = true, true, true
	c.attempted += len(idx)
	rep, err := nocalert.RunCampaign(o)
	if err != nil {
		c.failed += len(idx)
		c.problem("exact cross-check of campaign %d: %v", k, err)
		return
	}
	for j, i := range idx {
		if runHash(i, &rep.Results[j]) != want.Runs[i] {
			c.failed++
			c.problem("campaign %d run %d (%v): fast and exact engines disagree", k, i, opts.Faults[i].Site)
		}
	}
}
