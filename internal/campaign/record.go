package campaign

import (
	"fmt"
	"time"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/golden"
	"nocalert/internal/trace"
)

// ParseOutcome maps an outcome's abbreviation ("TP"/"FP"/"TN"/"FN")
// back to the Outcome — the inverse of Outcome.String, used when
// rebuilding results from serialized run records.
func ParseOutcome(s string) (Outcome, error) {
	switch s {
	case "TN":
		return TrueNegative, nil
	case "TP":
		return TruePositive, nil
	case "FP":
		return FalsePositive, nil
	case "FN":
		return FalseNegative, nil
	}
	return 0, fmt.Errorf("campaign: unknown outcome %q", s)
}

// checkRecordFault returns an error unless rec describes fault f (same
// site, bit, type and injection cycle): the fault that plan, the shard
// plan or the re-derived universe, holds at rec's index.
func checkRecordFault(rec *trace.RunRecord, f *fault.Fault, plan string) error {
	if rec.Router != f.Site.Router || rec.Signal != f.Site.Kind.String() ||
		rec.Port != f.Site.Port || rec.VC != f.Site.VC || rec.Bit != f.Bit ||
		rec.FaultType != f.Type.String() || rec.Cycle != f.Cycle {
		return fmt.Errorf("campaign: record %d describes fault %s.bit%d, %s has %v",
			rec.Index, rec.Signal, rec.Bit, plan, f)
	}
	return nil
}

// RecordFor flattens one run result into the NDJSON trace/checkpoint
// record schema. index is the run's global position in the campaign's
// fault universe; latencies are -1 when the mechanism never detected.
// The record carries everything ReportFromRecords needs to rebuild the
// aggregated report bit-identically.
func RecordFor(index int, res *RunResult, wall time.Duration, fastPath bool) trace.RunRecord {
	lat := func(detected bool, l int64) int64 {
		if !detected {
			return -1
		}
		return l
	}
	ids := func(cs []core.CheckerID) []int {
		if len(cs) == 0 {
			return nil
		}
		out := make([]int, len(cs))
		for i, c := range cs {
			out[i] = int(c)
		}
		return out
	}
	return trace.RunRecord{
		Index:              index,
		Router:             res.Fault.Site.Router,
		Signal:             res.Fault.Site.Kind.String(),
		Port:               res.Fault.Site.Port,
		VC:                 res.Fault.Site.VC,
		Bit:                res.Fault.Bit,
		FaultType:          res.Fault.Type.String(),
		Cycle:              res.Fault.Cycle,
		Fired:              res.Fired,
		Drained:            res.Drained,
		FastPath:           fastPath,
		Malicious:          !res.Verdict.OK(),
		Unbounded:          res.Verdict.Unbounded,
		Outcome:            res.Outcome.String(),
		Latency:            lat(res.Detected, res.Latency),
		CautiousOutcome:    res.CautiousOutcome.String(),
		CautiousLatency:    lat(res.CautiousDetected, res.CautiousLatency),
		ForeverOutcome:     res.ForeverOutcome.String(),
		ForeverLatency:     lat(res.ForeverDetected, res.ForeverLatency),
		CheckersFired:      ids(res.CheckersFired),
		FirstCycleCheckers: ids(res.FirstCycleCheckers),
		WallSeconds:        wall.Seconds(),
	}
}

// resultFromRecord inverts RecordFor: it rebuilds the RunResult fields
// the aggregated report reads. Fields the record does not carry (the
// simultaneity histogram, the full verdict breakdown) stay zero; no
// report aggregation consumes them. The synthetic Verdict reproduces
// only OK() and Unbounded, which is all the reducers ask of it. The
// record's own fault cycle anchors DetectCycle, so mixed-injection-cycle
// universes rebuild correctly.
func resultFromRecord(rec *trace.RunRecord) (RunResult, error) {
	kind, err := fault.ParseKind(rec.Signal)
	if err != nil {
		return RunResult{}, err
	}
	typ, err := fault.ParseType(rec.FaultType)
	if err != nil {
		return RunResult{}, err
	}
	f := fault.Fault{
		Site:  fault.Site{Router: rec.Router, Kind: kind, Port: rec.Port, VC: rec.VC},
		Bit:   rec.Bit,
		Cycle: rec.Cycle,
		Type:  typ,
	}
	res := RunResult{
		Fault:   f,
		Group:   []fault.Fault{f},
		Fired:   rec.Fired,
		Drained: rec.Drained,
	}
	if rec.Malicious {
		if rec.Unbounded {
			res.Verdict = golden.Verdict{Unbounded: true}
		} else {
			// Which correctness rule failed is not recorded; one dropped
			// flit stands in to make Verdict.OK() false.
			res.Verdict = golden.Verdict{Dropped: 1}
		}
	}
	if res.Outcome, err = ParseOutcome(rec.Outcome); err != nil {
		return RunResult{}, err
	}
	if res.CautiousOutcome, err = ParseOutcome(rec.CautiousOutcome); err != nil {
		return RunResult{}, err
	}
	if res.ForeverOutcome, err = ParseOutcome(rec.ForeverOutcome); err != nil {
		return RunResult{}, err
	}
	res.Detected = res.Outcome == TruePositive || res.Outcome == FalsePositive
	res.Latency = rec.Latency
	if res.Detected {
		res.DetectCycle = rec.Cycle + rec.Latency
	} else {
		res.DetectCycle = -1
	}
	res.CautiousDetected = res.CautiousOutcome == TruePositive || res.CautiousOutcome == FalsePositive
	res.CautiousLatency = rec.CautiousLatency
	res.ForeverDetected = res.ForeverOutcome == TruePositive || res.ForeverOutcome == FalsePositive
	res.ForeverLatency = rec.ForeverLatency
	if len(rec.CheckersFired) > 0 {
		res.CheckersFired = make([]core.CheckerID, len(rec.CheckersFired))
		for i, id := range rec.CheckersFired {
			res.CheckersFired[i] = core.CheckerID(id)
		}
	}
	if len(rec.FirstCycleCheckers) > 0 {
		res.FirstCycleCheckers = make([]core.CheckerID, len(rec.FirstCycleCheckers))
		for i, id := range rec.FirstCycleCheckers {
			res.FirstCycleCheckers[i] = core.CheckerID(id)
		}
	}
	return res, nil
}
