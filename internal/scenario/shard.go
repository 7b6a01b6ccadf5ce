package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Shard identifies one part of an i/n partition of a sweep's scenario
// selection. Index is 1-based: shard 1/3 covers the first third of the
// selection in enumeration order. Shards are contiguous index ranges, so
// concatenating shard outputs in shard order reproduces the unsharded
// sweep's stats stream exactly.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ParseShard parses the CLI form "i/n" (e.g. "2/3").
func ParseShard(s string) (Shard, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("scenario: bad shard %q: want i/n (e.g. 2/3)", s)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return Shard{}, fmt.Errorf("scenario: bad shard index in %q: %v", s, err)
	}
	n, err := strconv.Atoi(cnt)
	if err != nil {
		return Shard{}, fmt.Errorf("scenario: bad shard count in %q: %v", s, err)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate checks that the shard names a real part of a 1-based i/n
// partition.
func (sh Shard) Validate() error {
	if sh.Count < 1 {
		return fmt.Errorf("scenario: shard count %d < 1", sh.Count)
	}
	if sh.Index < 1 || sh.Index > sh.Count {
		return fmt.Errorf("scenario: shard index %d outside 1..%d", sh.Index, sh.Count)
	}
	return nil
}

// String renders the shard in its CLI form.
func (sh Shard) String() string { return fmt.Sprintf("%d/%d", sh.Index, sh.Count) }

// Cut returns the half-open range [lo, hi) of selection positions this
// shard covers within a selection of n items. The partition is contiguous
// and balanced: shard sizes differ by at most one, with the earlier
// shards taking the remainder. Cut is overflow-safe for any int64 n.
func (sh Shard) Cut(n int64) (lo, hi int64) {
	c := int64(sh.Count)
	base := n / c
	rem := n % c
	j := int64(sh.Index - 1)
	lo = j*base + min(j, rem)
	hi = lo + base
	if j < rem {
		hi++
	}
	return lo, hi
}

// Indices materializes this shard's slice of a sweep selection: a
// contiguous run of the sampled indices when sample is non-nil, otherwise
// of the matrix's full enumeration range. The result is never nil (an
// empty shard is an empty selection, not "the whole matrix"), so it can
// be passed to Sweep directly.
func (sh Shard) Indices(m *Matrix, sample []int64) []int64 {
	if sample != nil {
		lo, hi := sh.Cut(int64(len(sample)))
		out := make([]int64, hi-lo)
		copy(out, sample[lo:hi])
		return out
	}
	lo, hi := sh.Cut(m.Size())
	out := make([]int64, hi-lo)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// Fingerprint is a stable hex digest of everything that determines a
// sweep's result stream: the spec content (name plus axes with their
// values in enumeration order — order matters for flat specs, it fixes
// the index mapping), the registry version the scenarios are bound under
// (see Registry.Version), the effective seeds/window/base-seed, and the
// sample selection (n = 0 means the full enumeration and ignores the
// sample seed). Composed specs are canonicalized first (Spec.Canonical),
// the same normalization Matrix enumerates under — so any authored
// ordering of the same composition fingerprints identically, and a
// composition that collapses to a single block shares its fingerprint
// with the equivalent flat spec. Two runs that agree on these inputs
// produce byte-identical reports, so the fingerprint keys result caches
// across CI runs and refuses merges of shards drawn from different
// sweeps. All fields are length- or newline-delimited, keeping the
// encoding injective.
func Fingerprint(spec *Spec, registry string, seeds, window int, baseSeed uint64, sampleN int, sampleSeed uint64) string {
	if sampleN <= 0 {
		sampleN, sampleSeed = 0, 0
	}
	spec = spec.Canonical()
	h := uint64(offset64)
	h = fnv1aLine(h, fmt.Sprintf("spec=%d:%s", len(spec.Name), spec.Name))
	h = fnv1aLine(h, fmt.Sprintf("registry=%d:%s", len(registry), registry))
	for bi, b := range spec.Blocks {
		h = fnv1aLine(h, fmt.Sprintf("block=%d", bi))
		for _, ax := range b.Axes {
			h = fnv1aLine(h, fmt.Sprintf("axis=%d:%s", len(ax.Name), ax.Name))
			for _, v := range ax.Values {
				h = fnv1aLine(h, fmt.Sprintf("value=%d:%s", len(v), v))
			}
		}
	}
	for _, ax := range spec.Axes {
		h = fnv1aLine(h, fmt.Sprintf("axis=%d:%s", len(ax.Name), ax.Name))
		for _, v := range ax.Values {
			h = fnv1aLine(h, fmt.Sprintf("value=%d:%s", len(v), v))
		}
	}
	h = fnv1aLine(h, fmt.Sprintf("seeds=%d", seeds))
	h = fnv1aLine(h, fmt.Sprintf("window=%d", window))
	h = fnv1aLine(h, fmt.Sprintf("base=%d", baseSeed))
	h = fnv1aLine(h, fmt.Sprintf("sample=%d@%d", sampleN, sampleSeed))
	return fmt.Sprintf("%016x", h)
}

// ShardFormatVersion versions the ShardResult envelope; readers reject
// envelopes written by an incompatible format.
const ShardFormatVersion = 1

// ShardResult is the serialized output of one shard of a sweep: the
// sweep's fingerprint and spec, the shard coordinates, the shard's
// per-scenario aggregates in enumeration order, and its partial summary.
// A complete set of envelopes recombines via MergeShards into a report
// byte-identical to the unsharded sweep's.
type ShardResult struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	Spec        *Spec    `json:"spec"`
	Shard       Shard    `json:"shard"`
	Scenarios   []*Stats `json:"scenarios"`
	Summary     *Summary `json:"summary"`
}

// Write serializes the envelope as indented JSON.
func (sr *ShardResult) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sr)
}

// ShardReader reads the envelopes of one sweep. An envelope in the
// compact form json.Marshal gives it — a worker's upload, a coordinator's
// state file or SSE frame — is read in one pass; any other input, such as
// the indented envelopes of goalsweep -shard i/n -json or a hand-edited
// file, gets one DecodeStrict of the whole envelope, which stays the
// reference. Every envelope of a sweep carries the same spec,
// which for a large space is most of an envelope's bytes (the family
// spec's 4,096-value machine axis), so the one-pass reader decodes a spec
// only when its bytes differ from the last one it read and otherwise
// shares that envelope's *Spec. Envelopes read by one reader may
// therefore share their Spec, which callers must not modify. The zero
// value is ready to use; a ShardReader is not safe for concurrent use.
type ShardReader struct {
	specJSON []byte // the bytes of the last spec the one-pass reader decoded
	spec     *Spec  // their decoding
}

// Read decodes one envelope and validates its framing. Sharing a spec is
// its only difference from decoding the envelope strictly in one pass:
// for any input it returns an equal envelope or the same error. Unknown
// JSON fields are rejected deliberately: an envelope written by a future
// format that grew fields would otherwise decode "successfully" with
// those fields silently dropped, and a merge would fabricate a
// complete-looking report from data it did not understand. Compatible
// format evolution bumps ShardFormatVersion instead.
func (rd *ShardReader) Read(r io.Reader) (*ShardResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: decode shard result: %w", err)
	}
	sr, _, err := rd.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: decode shard result: %w", err)
	}
	if err := sr.Validate(); err != nil {
		return nil, err
	}
	return sr, nil
}

// Decode decodes one envelope without validating it: in one pass when
// data is in the compact form json.Marshal gives it, and otherwise with
// one DecodeStrict of the whole envelope, whose error it returns.
// compact reports the first case, in which data is json.Marshal of the
// envelope returned.
func (rd *ShardReader) Decode(data []byte) (sr *ShardResult, compact bool, err error) {
	if sr, ok := rd.readCompact(data); ok {
		return sr, true, nil
	}
	sr = new(ShardResult)
	if err := DecodeStrict(bytes.NewReader(data), sr); err != nil {
		return nil, false, err
	}
	return sr, false, nil
}

// Validate checks the envelope's framing: the format version, the shard
// coordinates, the presence of spec and summary, and agreement between
// the scenario list and the summary's count.
func (sr *ShardResult) Validate() error {
	if sr.Version != ShardFormatVersion {
		return fmt.Errorf("scenario: shard result format version %d, want %d", sr.Version, ShardFormatVersion)
	}
	if err := sr.Shard.Validate(); err != nil {
		return err
	}
	if sr.Spec == nil {
		return fmt.Errorf("scenario: shard result %s has no spec", sr.Shard)
	}
	if sr.Summary == nil {
		return fmt.Errorf("scenario: shard result %s has no summary", sr.Shard)
	}
	if len(sr.Scenarios) != sr.Summary.Scenarios {
		return fmt.Errorf("scenario: shard result %s carries %d scenarios but its summary counts %d",
			sr.Shard, len(sr.Scenarios), sr.Summary.Scenarios)
	}
	return nil
}

// MergeShards recombines a complete set of shard outputs into the stats
// stream and summary of the equivalent unsharded sweep. It requires
// exactly one envelope for every shard 1..n of the same sweep (same
// fingerprint and shard count); envelopes may arrive in any order and are
// reassembled by shard index — the partition is contiguous, so
// concatenation in index order equals enumeration order and the merged
// output is byte-identical to a fresh serial run.
func MergeShards(shards []*ShardResult) ([]*Stats, *Summary, error) {
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("scenario: merge needs at least one shard result")
	}
	first := shards[0]
	count := first.Shard.Count
	if len(shards) != count {
		return nil, nil, fmt.Errorf("scenario: have %d shard results for a %d-way partition", len(shards), count)
	}
	byIndex := make([]*ShardResult, count+1)
	for _, sr := range shards {
		if sr.Fingerprint != first.Fingerprint {
			return nil, nil, fmt.Errorf("scenario: shard %s fingerprint %s does not match %s — shards come from different sweeps",
				sr.Shard, sr.Fingerprint, first.Fingerprint)
		}
		if sr.Shard.Count != count {
			return nil, nil, fmt.Errorf("scenario: shard %s mixed into a %d-way partition", sr.Shard, count)
		}
		if err := sr.Shard.Validate(); err != nil {
			return nil, nil, err
		}
		if byIndex[sr.Shard.Index] != nil {
			return nil, nil, fmt.Errorf("scenario: duplicate shard %s", sr.Shard)
		}
		byIndex[sr.Shard.Index] = sr
	}
	var stats []*Stats
	sum := &Summary{Spec: first.Spec.Name}
	for i := 1; i <= count; i++ {
		sr := byIndex[i]
		if len(sr.Scenarios) != sr.Summary.Scenarios {
			return nil, nil, fmt.Errorf("scenario: shard %s carries %d scenarios but its summary counts %d",
				sr.Shard, len(sr.Scenarios), sr.Summary.Scenarios)
		}
		stats = append(stats, sr.Scenarios...)
		sum.Scenarios += sr.Summary.Scenarios
		sum.Trials += sr.Summary.Trials
		sum.Errors += sr.Summary.Errors
		sum.Successes += sr.Summary.Successes
		sum.TotalRounds += sr.Summary.TotalRounds
	}
	if sum.Trials > 0 {
		sum.SuccessRate = float64(sum.Successes) / float64(sum.Trials)
	}
	return stats, sum, nil
}
