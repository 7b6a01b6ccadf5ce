package scenario

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/server"
	"repro/internal/system"
)

// numbersOnly strips a stat's identity (ID, coordinates) leaving the
// aggregates, so scenarios from specs with different axis sets can be
// compared numerically.
func numbersOnly(t *testing.T, st *Stats) string {
	t.Helper()
	clone := *st
	clone.ID = ""
	clone.Axes = nil
	b, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAdversaryZeroAxesAggregateParity is the safety property of the
// adversary wrappers: declaring byzantine=0, mislead=0, drift=0 must
// yield aggregates numerically identical to a sweep that never mentions
// the axes. The stack stays deterministic (slow, no noise): trial seeds
// are content-derived, so the extra zero axes change the seed stream,
// and only deterministic executions can be expected to agree exactly —
// seeded byte parity of the wrappers themselves is pinned at the
// transcript level in the server package.
func TestAdversaryZeroAxesAggregateParity(t *testing.T) {
	t.Parallel()

	base := &Spec{
		Name: "parity",
		Axes: []Axis{
			{Name: "goal", Values: []string{"printing", "transfer", "treasure"}},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: []string{"0", "-1", "obstinate"}},
			{Name: "slow", Values: Ints(0, 2)},
			{Name: "rounds", Values: Ints(300)},
		},
		Seeds:    2,
		BaseSeed: 1,
	}
	wrapped := &Spec{
		Name: "parity",
		Axes: append(append([]Axis{}, base.Axes...),
			Axis{Name: "byzantine", Values: Ints(0)},
			Axis{Name: "mislead", Values: Floats(0)},
			Axis{Name: "drift", Values: Floats(0)},
		),
		Seeds:    2,
		BaseSeed: 1,
	}
	mb, err := NewMatrix(base)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := NewMatrix(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Size() != mw.Size() {
		t.Fatalf("sizes differ: %d vs %d", mb.Size(), mw.Size())
	}
	bStats, bSum := collectStats(t, mb, SweepConfig{Parallel: 2})
	wStats, wSum := collectStats(t, mw, SweepConfig{Parallel: 2})
	// The constant zero axes do not disturb enumeration order, so the
	// streams compare positionally.
	for i := range bStats {
		if a, b := numbersOnly(t, bStats[i]), numbersOnly(t, wStats[i]); a != b {
			t.Fatalf("scenario %d (%s): zero-budget adversary changed aggregates:\n%s\n%s",
				i, bStats[i].ID, a, b)
		}
	}
	if bSum.Successes != wSum.Successes || bSum.TotalRounds != wSum.TotalRounds ||
		bSum.Errors != wSum.Errors {
		t.Fatalf("summaries differ: %+v vs %+v", bSum, wSum)
	}
	if bSum.Successes == 0 || bSum.Successes == bSum.Trials {
		t.Fatalf("degenerate parity sweep: %d/%d successes", bSum.Successes, bSum.Trials)
	}
}

// TestBindWrapsServerInFixedOrder pins how Bind builds a class member:
// Byzantine innermost, then Misleading, Slow and Noisy, each only when its
// axis is nonzero. A run against the bound server must equal, round for
// round, a run against the same member wrapped by hand in that order, and
// with every axis zero, a run against the bare member.
func TestBindWrapsServerInFixedOrder(t *testing.T) {
	t.Parallel()

	reg := Builtin()
	for _, tc := range []struct {
		name string
		axes []Axis
		wrap func(comm.Strategy) comm.Strategy
	}{
		{"bare", nil, func(s comm.Strategy) comm.Strategy { return s }},
		{"all four", []Axis{
			{Name: "byzantine", Values: Ints(3)},
			{Name: "mislead", Values: Floats(0.3)},
			{Name: "slow", Values: Ints(2)},
			{Name: "noise", Values: Floats(0.2)},
		}, func(s comm.Strategy) comm.Strategy {
			return server.Noisy(server.Slow(server.Misleading(server.Byzantine(s, 3), 0.3), 2), 0.2)
		}},
		{"mislead and noise", []Axis{
			{Name: "mislead", Values: Floats(0.5)},
			{Name: "noise", Values: Floats(0.3)},
		}, func(s comm.Strategy) comm.Strategy {
			return server.Noisy(server.Misleading(s, 0.5), 0.3)
		}},
	} {
		m, err := NewMatrix(&Spec{Name: "order", Axes: append([]Axis{
			{Name: "goal", Values: []string{"printing"}},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: Ints(2)},
			{Name: "rounds", Values: Ints(300)},
		}, tc.axes...)})
		if err != nil {
			t.Fatal(err)
		}
		sc := m.At(0)
		bind, err := reg.Bind(sc)
		if err != nil {
			t.Fatal(err)
		}
		parts, _, err := reg.Parts(sc)
		if err != nil {
			t.Fatal(err)
		}
		run := func(srv comm.Strategy) *system.Result {
			user, err := bind.User()
			if err != nil {
				t.Fatal(err)
			}
			res, err := system.Run(user, srv, bind.World(), system.Config{MaxRounds: bind.MaxRounds, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got, want := run(bind.Server()), run(tc.wrap(parts.Member(2)))
		if !reflect.DeepEqual(got.View, want.View) || !reflect.DeepEqual(got.History, want.History) {
			t.Errorf("%s: the bound server's run differs from the hand-wrapped member's", tc.name)
		}
	}
}

// TestAdversarialSweepDeterminism runs the composed adversarial builtin
// — seeded Byzantine corruption, misleading feedback and dialect drift
// all active — and checks the result stream is byte-identical across
// serial, parallel, and sharded-then-merged execution.
func TestAdversarialSweepDeterminism(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wantStats, wantSum := collectStats(t, m, SweepConfig{Parallel: 1})
	want := marshal(wantStats) + marshal(wantSum)

	for _, cfg := range []SweepConfig{
		{Parallel: 4},
		{Parallel: 2},
	} {
		stats, sum := collectStats(t, m, cfg)
		if got := marshal(stats) + marshal(sum); got != want {
			t.Fatalf("%+v: adversarial sweep diverged from serial", cfg)
		}
	}

	// Shard three ways, merge, and compare the merged stream.
	fpr := Fingerprint(spec, "test/1", spec.seeds(), spec.window(), spec.baseSeed(), 0, 0)
	var shards []*ShardResult
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		var stats []*Stats
		sum, err := m.Sweep(sh.Indices(m, nil), SweepConfig{
			Parallel: 2,
			OnStats:  func(st *Stats) error { stats = append(stats, st); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, &ShardResult{
			Version:     ShardFormatVersion,
			Fingerprint: fpr,
			Spec:        m.Spec(),
			Shard:       sh,
			Scenarios:   stats,
			Summary:     sum,
		})
	}
	mergedStats, mergedSum, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshal(mergedStats) + marshal(mergedSum); got != want {
		t.Fatalf("sharded-and-merged adversarial sweep diverged from serial")
	}
	if wantSum.Successes == 0 {
		t.Fatal("adversarial sweep succeeded nowhere; determinism check is vacuous")
	}
}

// TestFlatVsComposedCacheSharing checks that a composed spec warms the
// cache for its flat equivalent and vice versa: scenario cache keys are
// content-derived, so the second sweep must execute nothing.
func TestFlatVsComposedCacheSharing(t *testing.T) {
	t.Parallel()

	flat := &Spec{
		Name: "cache-pair",
		Axes: []Axis{
			{Name: "class", Values: []string{"4"}},
			{Name: "goal", Values: []string{"treasure"}},
			{Name: "rounds", Values: []string{"300"}},
			{Name: "server", Values: []string{"-1", "0"}},
		},
		Seeds:    2,
		BaseSeed: 1,
	}
	split := &Spec{
		Name: "cache-pair",
		Blocks: []Block{
			{Axes: []Axis{
				{Name: "goal", Values: []string{"treasure"}},
				{Name: "server", Values: []string{"0"}},
				{Name: "class", Values: []string{"4"}},
				{Name: "rounds", Values: []string{"300"}},
			}},
			{Axes: []Axis{
				{Name: "goal", Values: []string{"treasure"}},
				{Name: "server", Values: []string{"-1"}},
				{Name: "class", Values: []string{"4"}},
				{Name: "rounds", Values: []string{"300"}},
			}},
		},
		Seeds:    2,
		BaseSeed: 1,
	}
	mf, err := NewMatrix(flat)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMatrix(split)
	if err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	flatStats, cold := collectStats(t, mf, SweepConfig{Parallel: 2, Cache: c})
	if cold.CacheMisses != cold.Scenarios || cold.ExecutedTrials == 0 {
		t.Fatalf("cold flat sweep: %d misses for %d scenarios, %d executed",
			cold.CacheMisses, cold.Scenarios, cold.ExecutedTrials)
	}
	splitStats, warm := collectStats(t, ms, SweepConfig{Parallel: 2, Cache: c})
	if warm.CacheHits != warm.Scenarios || warm.CacheMisses != 0 || warm.ExecutedTrials != 0 {
		t.Fatalf("composed equivalent missed the flat sweep's cache: %d hits, %d misses, %d executed",
			warm.CacheHits, warm.CacheMisses, warm.ExecutedTrials)
	}
	// Same scenarios, same aggregates — only the enumeration positions
	// may differ.
	byID := make(map[string]string, len(flatStats))
	for _, st := range flatStats {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		byID[st.ID] = string(b)
	}
	for _, st := range splitStats {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if byID[st.ID] != string(b) {
			t.Fatalf("scenario %s: cached composed aggregate differs from flat original", st.ID)
		}
	}
}

// TestAdversarialSensingBounds pins the theory-side behavior under
// adversarial servers, as success counts and as each row's claims verdict.
// Helpful-class scenarios — a cooperative member behind bounded corruption
// the sensing function can outwait — still succeed on every trial, and
// Theorem 1 applies and holds; scenarios beyond the sensing bound (a
// server that always suppresses progress, an obstinate server, an
// infeasible generated machine) are pinned failing, and outside the
// theorem.
func TestAdversarialSensingBounds(t *testing.T) {
	t.Parallel()

	sweepOne := func(t *testing.T, axes []Axis, seeds int, verdict string) *Summary {
		t.Helper()
		m, err := NewMatrix(&Spec{Name: "pin", Axes: axes, Seeds: seeds, BaseSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, sum := collectStats(t, m, SweepConfig{Parallel: 2})
		if sum.Errors != 0 {
			t.Fatalf("pin sweep errored %d times", sum.Errors)
		}
		claims, err := m.Claims(nil, SweepConfig{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range claims {
			if c.Verdict != verdict {
				t.Errorf("%s: claims verdict %s (%s), want %s", c.ID, c.Verdict, c.Why, verdict)
			}
		}
		return sum
	}

	t.Run("helpful-within-bounds", func(t *testing.T) {
		t.Parallel()
		// Byzantine budget 4, misleading kicks in a quarter of the
		// rounds, dialect drifts — the universal user still converges,
		// because sensing only needs honest progress eventually.
		sum := sweepOne(t, []Axis{
			{Name: "goal", Values: []string{"printing", "transfer", "control"}},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: []string{"0", "-1"}},
			{Name: "byzantine", Values: Ints(4)},
			{Name: "mislead", Values: Floats(0.25)},
			{Name: "drift", Values: Floats(0.25)},
			{Name: "rounds", Values: Ints(800)},
		}, 2, Holds)
		if sum.Successes != sum.Trials {
			t.Fatalf("helpful-class adversarial scenarios: %d/%d successes, want all",
				sum.Successes, sum.Trials)
		}
	})

	t.Run("mislead-one-starves", func(t *testing.T) {
		t.Parallel()
		// mislead=1 suppresses every action while claiming progress —
		// no goal with a world referee can be achieved.
		sum := sweepOne(t, []Axis{
			{Name: "goal", Values: []string{"printing", "transfer"}},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: []string{"0"}},
			{Name: "mislead", Values: Floats(1)},
			{Name: "rounds", Values: Ints(400)},
		}, 2, Outside)
		if sum.Successes != 0 {
			t.Fatalf("mislead=1 scenarios succeeded %d times", sum.Successes)
		}
	})

	t.Run("obstinate-with-adversary", func(t *testing.T) {
		t.Parallel()
		sum := sweepOne(t, []Axis{
			{Name: "goal", Values: []string{"printing", "treasure"}},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: []string{"obstinate"}},
			{Name: "byzantine", Values: Ints(4)},
			{Name: "mislead", Values: Floats(0.25)},
			{Name: "rounds", Values: Ints(400)},
		}, 2, Outside)
		if sum.Successes != 0 {
			t.Fatalf("obstinate scenarios succeeded %d times", sum.Successes)
		}
	})

	t.Run("infeasible-machine", func(t *testing.T) {
		t.Parallel()
		// Machine 0 of every space emits only symbol 0 — the target
		// output is unreachable, so the goal is never achieved no
		// matter the server.
		sum := sweepOne(t, []Axis{
			{Name: "goal", Values: []string{"fsm"}},
			{Name: "space", Values: []string{"2x2x2"}},
			{Name: "machine", Values: Ints(0)},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: []string{"0", "-1"}},
			{Name: "drift", Values: Floats(0, 0.25)},
			{Name: "rounds", Values: Ints(400)},
		}, 2, Outside)
		if sum.Successes != 0 {
			t.Fatalf("infeasible fsm machine succeeded %d times", sum.Successes)
		}
	})
}
