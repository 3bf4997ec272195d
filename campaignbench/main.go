// Command campaignbench is the repository's benchmark. It drives
// nocalert.RunCampaign from outside, as a user does: one process, a
// closed loop of one fault-injection campaign at a time, and checks
// every report it gets. See README.md for the workloads and metrics.
//
// Usage (from the root of a checkout):
//
//	bash campaignbench/run.sh --workload mesh8-sparse [--seed 3] [--seconds 20] [--trace 0|1] [--ref FILE]
//	bash campaignbench/run.sh pin --workload mesh8-sparse [--seed 3] > FILE
//	bash campaignbench/run.sh compare BASE NEW
//
// With --trace 0 the last line of standard output is the JSON result
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run instead. pin writes the reference a later
// --ref run is checked against; compare sets two files of collected
// outputs side by side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pin":
			exitOn(pin(os.Args[2:], os.Stdout))
			return
		case "compare":
			exitOn(compare(os.Args[2:], os.Stdout))
			return
		}
	}
	exitOn(run(os.Args[1:], os.Stdout))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// stamp precedes the result line and says what was measured where;
// compare reads it.
type stamp struct {
	Bench    string   `json:"bench"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Host     hostInfo `json:"host"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	secs := fs.Int("seconds", 30, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	refPath := fs.String("ref", "", "reference file written by pin to check results against (default: the pinned one for seed 3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	ref, err := loadReference(w, *seed, *refPath)
	if err != nil {
		return err
	}
	sets := w.inputs(*seed)
	chk := newChecker(sets, ref)
	budget := time.Duration(*secs) * time.Second
	hi := host()
	fmt.Fprintf(out, "campaignbench %s seed %d: %d campaigns of %d faults, %d worker(s); host %s, nproc %d, GOMAXPROCS %d, %s\n",
		w.name, *seed, w.sets, w.faults, w.workers(), hi.CPU, hi.NProc, hi.GOMAXPROCS, hi.Go)

	m := metrics{}
	if *trace == 0 {
		exs := measure(out, sets, budget, false, chk)
		if len(exs) == 0 {
			return fmt.Errorf("no campaign completed: %v", chk.problems)
		}
		s := summarize(exs, false, nil)
		m.set("faults_per_sec", s.faultsPerSec, "1/s")
		m.set("setup_s", s.setupS, "s")
		m.set("fault_ms", s.faultMS, "ms")
		m.set("peak_mem_mb", s.peakMemMB, "MB")
		fmt.Fprintf(out, "measured %d campaign executions\n", s.executions)
	} else {
		if err := traced(out, w, sets, budget, chk, m); err != nil {
			return err
		}
	}
	chk.crossCheck(0, sets[0])
	errorRate := float64(chk.failed) / float64(max(chk.attempted, 1))
	fmt.Fprintf(out, "correctness: %d runs attempted, %d failed (error_rate %.4g)\n", chk.attempted, chk.failed, errorRate)
	for _, p := range chk.problems {
		fmt.Fprintln(out, "  problem:", p)
	}
	printMetrics(out, m)
	enc := json.NewEncoder(out)
	if err := enc.Encode(stamp{"campaignbench", w.name, *seed, *secs, *trace, hi}); err != nil {
		return err
	}
	return enc.Encode(result{Correct: chk.correct(), Attempted: chk.attempted, Failed: chk.failed, Metrics: m})
}

// pin runs each campaign of a workload once at the given seed and
// writes the reference later runs are checked against.
func pin(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaignbench pin", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to pin")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	sets := w.inputs(*seed)
	chk := newChecker(sets, nil)
	measure(io.Discard, sets, 0, false, chk)
	if !chk.correct() {
		return fmt.Errorf("not pinning a failing run: %v", chk.problems)
	}
	return writeReference(out, chk.reference(w, *seed))
}

// writeReference writes ref as JSON with one campaign per line, which
// keeps the pinned files short and their diffs per campaign.
func writeReference(out io.Writer, ref reference) error {
	fmt.Fprintf(out, "{\"workload\":%q,\"seed\":%d,\"campaigns\":[\n", ref.Workload, ref.Seed)
	for k, c := range ref.Campaigns {
		b, err := json.Marshal(c)
		if err != nil {
			return err
		}
		sep := ","
		if k == len(ref.Campaigns)-1 {
			sep = ""
		}
		fmt.Fprintf(out, "%s%s\n", b, sep)
	}
	_, err := fmt.Fprintln(out, "]}")
	return err
}

func printMetrics(out io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
