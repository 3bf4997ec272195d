package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []endToEnd `json:"end_to_end"`
}

type endToEnd struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// sample holds the values of one metric over the runs of a file.
type sample map[string][]float64 // workload/metric → values

// readRuns reads a file of collected benchmark outputs: each result
// line is attributed to the stamp line before it. It refuses files that
// mix hosts, and returns the host fingerprint.
func readRuns(path string) (sample, hostInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, hostInfo{}, err
	}
	defer f.Close()
	out := sample{}
	var cur *stamp
	var h *hostInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var st stamp
		if json.Unmarshal(line, &st) == nil && st.Bench == "campaignbench" {
			if h != nil && *h != st.Host {
				return nil, hostInfo{}, fmt.Errorf("%s mixes hosts %+v and %+v", path, *h, st.Host)
			}
			h, cur = &st.Host, &st
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil || r.Metrics == nil || cur == nil {
			continue
		}
		if !r.Correct {
			return nil, hostInfo{}, fmt.Errorf("%s: an incorrect run of %s seed %d", path, cur.Workload, cur.Seed)
		}
		for k, v := range r.Metrics {
			key := cur.Workload + "/" + k
			out[key] = append(out[key], v.Value)
		}
	}
	if h == nil {
		return nil, hostInfo{}, fmt.Errorf("%s holds no campaignbench results", path)
	}
	return out, *h, sc.Err()
}

// compare prints, per workload and metric, the median and quartile
// spread of the runs in BASE and, given NEW, NEW's median and its change.
// An end-to-end metric whose NEW median is worse than BASE's by more
// than its bound in BENCHMARK.json (read from the working directory) is
// flagged, and compare then exits non-zero.
func compare(args []string, out io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: compare BASE [NEW]")
	}
	base, bh, err := readRuns(args[0])
	if err != nil {
		return err
	}
	var cur sample
	if len(args) == 2 {
		var ch hostInfo
		if cur, ch, err = readRuns(args[1]); err != nil {
			return err
		}
		if ch != bh {
			return fmt.Errorf("results come from different hosts (%+v vs %+v); host times compare only on one host", bh, ch)
		}
	}
	var spec benchSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	bounds := map[string]endToEnd{}
	for _, e := range spec.EndToEnd {
		bounds[e.Name] = e
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", bh.CPU, bh.NProc, bh.GOMAXPROCS, bh.Go)
	fmt.Fprintf(out, "%-48s %3s %12s %7s", "workload/metric", "n", "base median", "spread")
	if cur != nil {
		fmt.Fprintf(out, " %3s %12s %7s %8s", "n", "new median", "spread", "change")
	}
	fmt.Fprintln(out)
	flagged := 0
	for _, k := range keys {
		bm, bs := median(base[k]), spread(base[k])
		fmt.Fprintf(out, "%-48s %3d %12.6g %6.1f%%", k, len(base[k]), bm, 100*bs)
		if cur != nil && len(cur[k]) > 0 {
			nm := median(cur[k])
			change := nm/bm - 1
			fmt.Fprintf(out, " %3d %12.6g %6.1f%% %+7.1f%%", len(cur[k]), nm, 100*spread(cur[k]), 100*change)
			_, metric, _ := strings.Cut(k, "/")
			if b, ok := bounds[metric]; ok {
				worse := change
				if b.Better == "higher" {
					worse = -change
				}
				if worse > b.Bound {
					fmt.Fprintf(out, "  REGRESSION (bound %.0f%%)", 100*b.Bound)
					flagged++
				}
			}
		}
		fmt.Fprintln(out)
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", flagged)
	}
	return nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
