package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"nocalert"
)

// defaultSeed is the seed whose results are pinned under ref/.
const defaultSeed = 3

//go:embed ref/*.json
var pinnedRefs embed.FS

// reference is what one run's campaigns must produce: per campaign the
// SHA-256 of Report.WriteJSON and one hash per fault run.
type reference struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Campaigns []campaignRef `json:"campaigns"`
}

type campaignRef struct {
	Seed   uint64   `json:"seed"`
	Report string   `json:"report_sha256"`
	Runs   []string `json:"runs"`
}

// runHash identifies one run's result: the FNV-64a of its canonical
// run record with the wall time and the fast-path flag left out, so a
// run that takes another exit path to the same result still matches.
func runHash(i int, res *nocalert.CampaignResult) string {
	rec := nocalert.CampaignRunRecord(i, res, 0, false)
	h := fnv.New64a()
	h.Write(rec.CanonicalBytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

func campaignRefOf(seed uint64, rep *nocalert.CampaignReport) (campaignRef, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return campaignRef{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	c := campaignRef{Seed: seed, Report: hex.EncodeToString(sum[:]), Runs: make([]string, len(rep.Results))}
	for i := range rep.Results {
		c.Runs[i] = runHash(i, &rep.Results[i])
	}
	return c, nil
}

// loadReference returns the reference a run is checked against: the
// file named by --ref when given, else the pinned one for the default
// seed, else nil (the run's first execution of each campaign becomes
// the reference for its repeats).
func loadReference(w *workload, seed uint64, path string) (*reference, error) {
	var b []byte
	var err error
	switch {
	case path != "":
		b, err = os.ReadFile(path)
	case seed == defaultSeed:
		path = "ref/" + w.name + ".json"
		b, err = pinnedRefs.ReadFile(path)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if ref.Workload != w.name || ref.Seed != seed || len(ref.Campaigns) != w.sets {
		return nil, fmt.Errorf("reference is for %s seed %d with %d campaigns, not %s seed %d with %d",
			ref.Workload, ref.Seed, len(ref.Campaigns), w.name, seed, w.sets)
	}
	return &ref, nil
}

// checker verifies every execution of a run and counts its fault runs:
// a run fails when its campaign errored or its result differs from the
// reference. It also requires each report's digest to match and
// NoCAlert to miss no fault (Observation 1).
type checker struct {
	seeds     []uint64
	want      []*campaignRef // nil entries are filled by first executions
	attempted int
	failed    int
	problems  []string
}

func newChecker(sets []nocalert.CampaignOptions, ref *reference) *checker {
	c := &checker{seeds: make([]uint64, len(sets)), want: make([]*campaignRef, len(sets))}
	for k := range sets {
		c.seeds[k] = sets[k].Sim.Seed
	}
	if ref != nil {
		for k := range ref.Campaigns {
			c.want[k] = &ref.Campaigns[k]
		}
	}
	return c
}

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// check accounts for one execution of campaign k with n faults and
// reports whether it may be timed.
func (c *checker) check(k, n int, ex *execution, err error) bool {
	c.attempted += n
	if err != nil {
		c.failed += n
		c.problem("%v", err)
		return false
	}
	got, err := campaignRefOf(c.seeds[k], ex.report)
	if err != nil {
		c.failed += n
		c.problem("campaign %d: report: %v", k, err)
		return false
	}
	if fn := ex.report.FalseNegatives(nocalert.MechanismNoCAlert); fn != 0 {
		c.problem("campaign %d: %d NoCAlert false negatives (Observation 1 requires 0)", k, fn)
	}
	want := c.want[k]
	if want == nil {
		c.want[k] = &got
		return true
	}
	if len(want.Runs) != n {
		c.failed += n
		c.problem("campaign %d: %d runs, reference has %d", k, n, len(want.Runs))
		return false
	}
	bad := 0
	for i := range got.Runs {
		if got.Runs[i] != want.Runs[i] {
			bad++
		}
	}
	if bad > 0 {
		c.failed += bad
		c.problem("campaign %d: %d of %d runs differ from the reference", k, bad, n)
	}
	if got.Report != want.Report {
		c.problem("campaign %d: report digest %.12s, reference %.12s", k, got.Report, want.Report)
	}
	return true
}

func (c *checker) correct() bool { return len(c.problems) == 0 && c.failed == 0 }

func (c *checker) reference(w *workload, seed uint64) reference {
	ref := reference{Workload: w.name, Seed: seed}
	for _, cr := range c.want {
		if cr != nil {
			ref.Campaigns = append(ref.Campaigns, *cr)
		}
	}
	return ref
}
