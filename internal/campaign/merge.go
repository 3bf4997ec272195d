package campaign

import (
	"encoding/json"
	"fmt"
	"sort"

	"nocalert/internal/trace"
)

// Merged is the folded output of a complete shard set: the campaign
// spec the shards agree on and every run record, in global index
// order. Report() turns it into the same aggregated Report an
// unsharded run produces.
type Merged struct {
	Spec   Spec
	Shards int
	// Records holds one record per fault of the universe, sorted by
	// global index (0..len-1, gap-free — MergeShards guarantees it).
	Records []trace.RunRecord
}

// MergeShards validates and folds a set of shard checkpoints into one
// campaign. It refuses to merge unless the shards:
//
//   - carry identical spec and universe fingerprints (same campaign),
//   - are all finalized (footer present; its checksum was already
//     verified when the checkpoint was read),
//   - form exactly the planner's partition — every shard index 0..N-1
//     present once, ranges tiling [0, universe) with no overlap or gap,
//   - record every index of their range exactly once, with each
//     record's fault identity matching the universe re-derived from
//     the embedded spec.
//
// Passing all checks proves the merged record set covers the identical
// fault universe an unsharded run would execute, one record per fault.
func MergeShards(shards []*trace.CheckpointData) (*Merged, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("campaign: no shards to merge")
	}
	ref := &shards[0].Manifest
	var spec Spec
	if err := json.Unmarshal(ref.Spec, &spec); err != nil {
		return nil, fmt.Errorf("campaign: shard manifest spec: %v", err)
	}
	if h := spec.Hash(); h != ref.SpecHash {
		return nil, fmt.Errorf("campaign: shard 0 spec hash %s does not match its embedded spec (%s)", ref.SpecHash, h)
	}
	universe := spec.Universe()
	if h := UniverseHash(universe); h != ref.UniverseHash {
		return nil, fmt.Errorf("campaign: universe hash %s does not match the spec's universe (%s) — site enumeration changed?", ref.UniverseHash, h)
	}

	n := ref.Shards
	if len(shards) != n {
		return nil, fmt.Errorf("campaign: got %d shards, manifest says the campaign has %d", len(shards), n)
	}
	seenShard := make([]bool, n)
	records := make([]*trace.RunRecord, len(universe))
	for _, sd := range shards {
		m := &sd.Manifest
		if m.SpecHash != ref.SpecHash || m.UniverseHash != ref.UniverseHash || m.Shards != n {
			return nil, fmt.Errorf("campaign: shard %d/%d (spec %s) belongs to a different campaign than shard %d/%d (spec %s)",
				m.Shard, m.Shards, m.SpecHash, ref.Shard, ref.Shards, ref.SpecHash)
		}
		if m.Shard < 0 || m.Shard >= n {
			return nil, fmt.Errorf("campaign: shard index %d outside [0,%d)", m.Shard, n)
		}
		if seenShard[m.Shard] {
			return nil, fmt.Errorf("campaign: shard %d supplied twice", m.Shard)
		}
		seenShard[m.Shard] = true
		lo, hi := ShardRange(len(universe), m.Shard, n)
		if m.Start != lo || m.End != hi {
			return nil, fmt.Errorf("campaign: shard %d covers [%d,%d), planner says [%d,%d)",
				m.Shard, m.Start, m.End, lo, hi)
		}
		if sd.Footer == nil {
			return nil, fmt.Errorf("campaign: shard %d is not finalized (%d/%d runs recorded) — resume it before merging",
				m.Shard, len(sd.Records), hi-lo)
		}
		if len(sd.Records) != hi-lo {
			return nil, fmt.Errorf("campaign: shard %d has %d records, range [%d,%d) needs %d",
				m.Shard, len(sd.Records), lo, hi, hi-lo)
		}
		for i := range sd.Records {
			rec := &sd.Records[i]
			if rec.Index < lo || rec.Index >= hi {
				return nil, fmt.Errorf("campaign: shard %d record index %d outside its range [%d,%d)",
					m.Shard, rec.Index, lo, hi)
			}
			if records[rec.Index] != nil {
				return nil, fmt.Errorf("campaign: duplicate record for fault index %d", rec.Index)
			}
			if err := checkRecordFault(rec, &universe[rec.Index], "universe"); err != nil {
				return nil, err
			}
			records[rec.Index] = rec
		}
	}
	for i := range seenShard {
		if !seenShard[i] {
			return nil, fmt.Errorf("campaign: shard %d/%d missing from the merge", i, n)
		}
	}
	out := &Merged{Spec: spec, Shards: n, Records: make([]trace.RunRecord, len(universe))}
	for i, rec := range records {
		if rec == nil {
			// Unreachable given the counting above, but a nil deref here
			// would be a far worse failure mode than an error.
			return nil, fmt.Errorf("campaign: no record for fault index %d", i)
		}
		out.Records[i] = *rec
	}
	return out, nil
}

// Report rebuilds the aggregated campaign report from the merged
// records. The result renders bit-identically to the report of the
// equivalent unsharded run (same figures, same WriteJSON bytes).
func (m *Merged) Report() (*Report, error) {
	return ReportFromRecords(m.Spec, m.Records)
}

// ReportFromRecords reconstructs a Report from a complete record set
// (one record per fault, indices 0..len-1 in any order). Everything
// the report reducers and WriteJSON read is recovered; fields the
// records do not carry (per-run simultaneity histograms, golden-run
// metadata) stay zero.
func ReportFromRecords(spec Spec, recs []trace.RunRecord) (*Report, error) {
	sorted := append([]trace.RunRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	rep := &Report{
		Opts:    spec.Options(),
		Results: make([]RunResult, len(sorted)),
	}
	for i := range sorted {
		rec := &sorted[i]
		if rec.Index != i {
			return nil, fmt.Errorf("campaign: record set is not a gap-free index sequence (position %d has index %d)", i, rec.Index)
		}
		res, err := resultFromRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("campaign: record %d: %v", rec.Index, err)
		}
		rep.Results[i] = res
		if rec.FastPath {
			rep.FastPathHits++
		}
	}
	return rep, nil
}
