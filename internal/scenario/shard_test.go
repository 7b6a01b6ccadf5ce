package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// sweepIndices sweeps an explicit selection and returns the emitted
// aggregates plus the summary.
func sweepIndices(t *testing.T, m *Matrix, indices []int64, cfg SweepConfig) ([]*Stats, *Summary) {
	t.Helper()
	var stats []*Stats
	cfg.OnStats = func(st *Stats) error {
		stats = append(stats, st)
		return nil
	}
	sum, err := m.Sweep(indices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stats, sum
}

// marshalT marshals for byte-level comparisons.
func marshalT(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseShard(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		in    string
		index int
		count int
	}{
		{"1/1", 1, 1},
		{"1/3", 1, 3},
		{"3/3", 3, 3},
		{"7/16", 7, 16},
	} {
		sh, err := ParseShard(tc.in)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", tc.in, err)
		}
		if sh.Index != tc.index || sh.Count != tc.count {
			t.Fatalf("ParseShard(%q) = %+v", tc.in, sh)
		}
		if sh.String() != tc.in {
			t.Fatalf("ParseShard(%q).String() = %q", tc.in, sh.String())
		}
	}
	for _, bad := range []string{"", "3", "0/3", "4/3", "-1/3", "1/0", "1/-2", "a/b", "1/3/5", "1.5/3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestShardCutPartition checks the planner invariants: for any selection
// size, the shards of an n-way cut are contiguous, disjoint, cover the
// whole range, and are balanced to within one element.
func TestShardCutPartition(t *testing.T) {
	t.Parallel()

	for _, n := range []int64{0, 1, 2, 5, 12, 288, 1000003} {
		for count := 1; count <= 7; count++ {
			next := int64(0)
			for i := 1; i <= count; i++ {
				lo, hi := Shard{Index: i, Count: count}.Cut(n)
				if lo != next {
					t.Fatalf("n=%d count=%d shard %d starts at %d, want %d", n, count, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d count=%d shard %d has negative size [%d,%d)", n, count, i, lo, hi)
				}
				size := hi - lo
				if size != n/int64(count) && size != n/int64(count)+1 {
					t.Fatalf("n=%d count=%d shard %d unbalanced: size %d", n, count, i, size)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d count=%d shards cover [0,%d), want [0,%d)", n, count, next, n)
			}
		}
	}
}

func TestShardIndices(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Full-matrix shards reassemble the enumeration range.
	var got []int64
	for i := 1; i <= 5; i++ {
		part := Shard{Index: i, Count: 5}.Indices(m, nil)
		if part == nil {
			t.Fatalf("shard %d/5 returned a nil selection", i)
		}
		got = append(got, part...)
	}
	if int64(len(got)) != m.Size() {
		t.Fatalf("shards cover %d indices, matrix has %d", len(got), m.Size())
	}
	for i, idx := range got {
		if idx != int64(i) {
			t.Fatalf("reassembled index %d is %d", i, idx)
		}
	}

	// Sample shards slice the sampled selection, preserving order.
	sample := m.Sample(7, 42)
	got = got[:0]
	for i := 1; i <= 3; i++ {
		got = append(got, Shard{Index: i, Count: 3}.Indices(m, sample)...)
	}
	if len(got) != len(sample) {
		t.Fatalf("sample shards cover %d of %d indices", len(got), len(sample))
	}
	for i := range got {
		if got[i] != sample[i] {
			t.Fatalf("reassembled sample differs at %d: %d vs %d", i, got[i], sample[i])
		}
	}

	// More shards than scenarios: the extras are empty but non-nil.
	empty := Shard{Index: 3, Count: 3}.Indices(m, m.Sample(2, 1))
	if empty == nil || len(empty) != 0 {
		t.Fatalf("oversharded selection = %v, want empty non-nil", empty)
	}
}

// shardFingerprint computes the fingerprint the CLI would stamp on a
// shard envelope of this sweep.
func shardFingerprint(spec *Spec, cfg SweepConfig, sampleN int, sampleSeed uint64) string {
	seeds, window, base := cfg.Effective(spec)
	reg := cfg.Registry
	if reg == nil {
		reg = Builtin()
	}
	return Fingerprint(spec, reg.Version(), seeds, window, base, sampleN, sampleSeed)
}

// TestShardedSweepMergeByteIdentical is the tentpole acceptance property:
// for several shard counts, sweeping every shard separately and merging
// the envelopes reproduces the unsharded sweep's stats stream and summary
// byte for byte — envelopes supplied in any order.
func TestShardedSweepMergeByteIdentical(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Parallel: 2}
	fullStats, fullSum := collectStats(t, m, cfg)
	wantStats := marshalT(t, fullStats)
	wantSum := marshalT(t, fullSum)

	fp := shardFingerprint(spec, cfg, 0, 0)
	for _, count := range []int{1, 2, 3, 5, 12, 20} {
		var shards []*ShardResult
		for i := 1; i <= count; i++ {
			sh := Shard{Index: i, Count: count}
			stats, sum := sweepIndices(t, m, sh.Indices(m, nil), cfg)
			shards = append(shards, &ShardResult{
				Version:     ShardFormatVersion,
				Fingerprint: fp,
				Spec:        spec,
				Shard:       sh,
				Scenarios:   stats,
				Summary:     sum,
			})
		}
		// Merge must not depend on envelope order.
		for l, r := 0, len(shards)-1; l < r; l, r = l+1, r-1 {
			shards[l], shards[r] = shards[r], shards[l]
		}
		mergedStats, mergedSum, err := MergeShards(shards)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if got := marshalT(t, mergedStats); got != wantStats {
			t.Fatalf("count %d: merged stats differ from unsharded sweep", count)
		}
		if got := marshalT(t, mergedSum); got != wantSum {
			t.Fatalf("count %d: merged summary differs from unsharded sweep:\n%s\n%s",
				count, got, wantSum)
		}
	}
}

// TestShardedSampleSweepMerges runs the same property over a sampled
// selection: shards partition the sample, and the merge reproduces the
// unsharded sampled sweep exactly.
func TestShardedSampleSweepMerges(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Parallel: 2}
	sample := m.Sample(7, 9)
	fullStats, fullSum := sweepIndices(t, m, sample, cfg)

	fp := shardFingerprint(spec, cfg, 7, 9)
	var shards []*ShardResult
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		stats, sum := sweepIndices(t, m, sh.Indices(m, sample), cfg)
		shards = append(shards, &ShardResult{
			Version:     ShardFormatVersion,
			Fingerprint: fp,
			Spec:        spec,
			Shard:       sh,
			Scenarios:   stats,
			Summary:     sum,
		})
	}
	mergedStats, mergedSum, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if marshalT(t, mergedStats) != marshalT(t, fullStats) {
		t.Fatal("merged sampled stats differ from unsharded sampled sweep")
	}
	if marshalT(t, mergedSum) != marshalT(t, fullSum) {
		t.Fatal("merged sampled summary differs from unsharded sampled sweep")
	}
}

func TestMergeShardsValidation(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Parallel: 2}
	fp := shardFingerprint(spec, cfg, 0, 0)
	mk := func(i, count int) *ShardResult {
		sh := Shard{Index: i, Count: count}
		stats, sum := sweepIndices(t, m, sh.Indices(m, nil), cfg)
		return &ShardResult{
			Version:     ShardFormatVersion,
			Fingerprint: fp,
			Spec:        spec,
			Shard:       sh,
			Scenarios:   stats,
			Summary:     sum,
		}
	}

	check := func(name, wantErr string, shards ...*ShardResult) {
		t.Helper()
		if _, _, err := MergeShards(shards); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: err = %v, want %q", name, err, wantErr)
		}
	}
	check("empty", "at least one", []*ShardResult{}...)
	check("missing shard", "2 shard results for a 3-way", mk(1, 3), mk(2, 3))
	check("duplicate shard", "duplicate shard 1/2", mk(1, 2), mk(1, 2))
	check("count mismatch", "mixed into", mk(1, 2), mk(2, 3))

	bad := mk(2, 2)
	bad.Fingerprint = "0000000000000000"
	check("fingerprint mismatch", "different sweeps", mk(1, 2), bad)

	lying := mk(2, 2)
	lying.Summary.Scenarios++
	check("inconsistent summary", "summary counts", mk(1, 2), lying)
}

func TestShardResultReadWrite(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Parallel: 2}
	sh := Shard{Index: 1, Count: 2}
	stats, sum := sweepIndices(t, m, sh.Indices(m, nil), cfg)
	sr := &ShardResult{
		Version:     ShardFormatVersion,
		Fingerprint: shardFingerprint(spec, cfg, 0, 0),
		Spec:        spec,
		Shard:       sh,
		Scenarios:   stats,
		Summary:     sum,
	}
	var b strings.Builder
	if err := sr.Write(&b); err != nil {
		t.Fatal(err)
	}
	back, err := new(ShardReader).Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if marshalT(t, back) != marshalT(t, sr) {
		t.Fatal("shard result did not round-trip")
	}

	for name, mangle := range map[string]func(*ShardResult){
		"bad version": func(sr *ShardResult) { sr.Version = ShardFormatVersion + 1 },
		"bad shard":   func(sr *ShardResult) { sr.Shard.Index = 0 },
		"no spec":     func(sr *ShardResult) { sr.Spec = nil },
		"no summary":  func(sr *ShardResult) { sr.Summary = nil },
	} {
		broken := *sr
		mangle(&broken)
		var bb strings.Builder
		if err := broken.Write(&bb); err != nil {
			t.Fatal(err)
		}
		if _, err := new(ShardReader).Read(strings.NewReader(bb.String())); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	for name, in := range map[string]string{
		"garbage":          "{not json",
		"two envelopes":    b.String() + b.String(),
		"trailing garbage": b.String() + "trailing garbage",
	} {
		if _, err := new(ShardReader).Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestShardResultRejectsUnknownFields pins the envelope's forward-compat
// contract: an envelope carrying fields this build does not know is
// rejected outright, never silently accepted with the extra data dropped
// — a future format that grows fields must bump ShardFormatVersion.
func TestShardResultRejectsUnknownFields(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{}
	sh := Shard{Index: 1, Count: 1}
	stats, sum := sweepIndices(t, m, sh.Indices(m, nil), cfg)
	sr := &ShardResult{
		Version:     ShardFormatVersion,
		Fingerprint: shardFingerprint(spec, cfg, 0, 0),
		Spec:        spec,
		Shard:       sh,
		Scenarios:   stats,
		Summary:     sum,
	}
	var b strings.Builder
	if err := sr.Write(&b); err != nil {
		t.Fatal(err)
	}
	// Sanity: the unmodified envelope round-trips.
	if _, err := new(ShardReader).Read(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	// Graft an unknown top-level field onto the valid envelope.
	futured := strings.Replace(b.String(), `"version":`, `"futureField": 7, "version":`, 1)
	if futured == b.String() {
		t.Fatal("test setup: version field not found in envelope")
	}
	if _, err := new(ShardReader).Read(strings.NewReader(futured)); err == nil ||
		!strings.Contains(err.Error(), "futureField") {
		t.Fatalf("envelope with unknown top-level field accepted: %v", err)
	}
	// Unknown fields nested in the summary are rejected too.
	nested := strings.Replace(b.String(), `"summary": {`, `"summary": {"futureStat": 1, `, 1)
	if nested == b.String() {
		t.Fatal("test setup: summary object not found in envelope")
	}
	if _, err := new(ShardReader).Read(strings.NewReader(nested)); err == nil {
		t.Fatal("envelope with unknown summary field accepted")
	}
}

// TestFingerprintSensitivity checks that the fingerprint distinguishes
// every input that changes a sweep's output, and nothing else.
func TestFingerprintSensitivity(t *testing.T) {
	t.Parallel()

	base := func() *Spec {
		s, err := BuiltinSpec("quick")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reg := Builtin().Version()
	ref := Fingerprint(base(), reg, 2, 10, 1, 0, 0)
	if len(ref) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", ref)
	}
	if got := Fingerprint(base(), reg, 2, 10, 1, 0, 0); got != ref {
		t.Fatal("fingerprint unstable across calls")
	}
	// Sample seed is ignored when not sampling.
	if got := Fingerprint(base(), reg, 2, 10, 1, 0, 99); got != ref {
		t.Fatal("unused sample seed changed the fingerprint")
	}

	distinct := map[string]string{"ref": ref}
	add := func(name string, fp string) {
		t.Helper()
		for prev, other := range distinct {
			if other == fp {
				t.Fatalf("%s collides with %s", name, prev)
			}
		}
		distinct[name] = fp
	}
	add("seeds", Fingerprint(base(), reg, 3, 10, 1, 0, 0))
	add("window", Fingerprint(base(), reg, 2, 11, 1, 0, 0))
	add("baseseed", Fingerprint(base(), reg, 2, 10, 2, 0, 0))
	add("sampled", Fingerprint(base(), reg, 2, 10, 1, 5, 0))
	add("sampleseed", Fingerprint(base(), reg, 2, 10, 1, 5, 1))
	add("registry", Fingerprint(base(), "custom/1", 2, 10, 1, 0, 0))
	add("unversioned registry", Fingerprint(base(), "", 2, 10, 1, 0, 0))

	renamed := base()
	renamed.Name = "quick2"
	add("spec name", Fingerprint(renamed, reg, 2, 10, 1, 0, 0))

	restricted := base()
	if err := restricted.Restrict("goal", "printing"); err != nil {
		t.Fatal(err)
	}
	add("restricted axis", Fingerprint(restricted, reg, 2, 10, 1, 0, 0))

	reordered := base()
	reordered.Axes[0], reordered.Axes[1] = reordered.Axes[1], reordered.Axes[0]
	add("axis order", Fingerprint(reordered, reg, 2, 10, 1, 0, 0))
}
