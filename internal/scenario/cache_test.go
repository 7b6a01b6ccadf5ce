package scenario

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/sensing"
	"repro/internal/server"
)

// quickMatrix builds the quick builtin matrix.
func quickMatrix(t *testing.T) *Matrix {
	t.Helper()
	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// openCache opens a cache in a fresh temp dir.
func openCache(t *testing.T) *Cache {
	t.Helper()
	c, err := OpenCache(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cacheFiles lists every entry file in the store.
func cacheFiles(t *testing.T, c *Cache) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSweepWarmCacheByteIdentical is the tentpole acceptance property for
// caching: a cold cached sweep matches an uncached sweep byte for byte,
// and a warm rerun matches both while executing zero trials.
func TestSweepWarmCacheByteIdentical(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	plainStats, plainSum := collectStats(t, m, SweepConfig{Parallel: 2})
	want := marshalT(t, plainStats)
	wantSum := marshalT(t, plainSum)

	c := openCache(t)
	coldStats, coldSum := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if marshalT(t, coldStats) != want {
		t.Fatal("cold cached sweep differs from uncached sweep")
	}
	if marshalT(t, coldSum) != wantSum {
		t.Fatal("cold cached summary differs from uncached summary")
	}
	if coldSum.CacheHits != 0 || coldSum.CacheMisses != coldSum.Scenarios {
		t.Fatalf("cold run: %d hits, %d misses over %d scenarios",
			coldSum.CacheHits, coldSum.CacheMisses, coldSum.Scenarios)
	}
	if coldSum.ExecutedTrials != coldSum.Trials {
		t.Fatalf("cold run executed %d of %d trials", coldSum.ExecutedTrials, coldSum.Trials)
	}

	warmStats, warmSum := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if marshalT(t, warmStats) != want {
		t.Fatal("warm cached sweep differs from uncached sweep")
	}
	if marshalT(t, warmSum) != wantSum {
		t.Fatal("warm cached summary differs from uncached summary")
	}
	if warmSum.ExecutedTrials != 0 {
		t.Fatalf("warm run executed %d trials, want 0", warmSum.ExecutedTrials)
	}
	if warmSum.CacheHits != warmSum.Scenarios || warmSum.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits, %d misses over %d scenarios",
			warmSum.CacheHits, warmSum.CacheMisses, warmSum.Scenarios)
	}
}

// TestCacheKeyedByParameters checks that overriding seeds, window or base
// seed misses the entries stored under other parameters instead of
// serving them.
func TestCacheKeyedByParameters(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	c := openCache(t)
	_, cold := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if cold.CacheMisses != cold.Scenarios {
		t.Fatalf("cold run hit %d entries in an empty cache", cold.CacheHits)
	}
	for name, cfg := range map[string]SweepConfig{
		"seeds":    {Parallel: 2, Cache: c, Seeds: 3},
		"window":   {Parallel: 2, Cache: c, Window: 20},
		"baseseed": {Parallel: 2, Cache: c, BaseSeed: 7},
	} {
		_, sum := collectStats(t, m, cfg)
		if sum.CacheHits != 0 {
			t.Fatalf("%s override hit %d entries stored under different parameters", name, sum.CacheHits)
		}
		if sum.ExecutedTrials != sum.Trials {
			t.Fatalf("%s override executed %d of %d trials", name, sum.ExecutedTrials, sum.Trials)
		}
	}
	// And the original parameters still hit everything.
	_, warm := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if warm.CacheHits != warm.Scenarios {
		t.Fatalf("original parameters hit only %d of %d", warm.CacheHits, warm.Scenarios)
	}
}

// TestCacheCorruptionFallsBack corrupts stored entries in several ways
// and checks the sweep recomputes them — output stays byte-identical —
// and heals the store.
func TestCacheCorruptionFallsBack(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	c := openCache(t)
	plainStats, _ := collectStats(t, m, SweepConfig{Parallel: 2})
	want := marshalT(t, plainStats)
	collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})

	files := cacheFiles(t, c)
	if int64(len(files)) != m.Size() {
		t.Fatalf("cache holds %d entries for %d scenarios", len(files), m.Size())
	}
	// Truncate one entry mid-JSON, garbage a second, empty a third.
	if err := os.WriteFile(files[0], []byte(`{"version":1,"key":"v1|tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[2], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	stats, sum := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if marshalT(t, stats) != want {
		t.Fatal("sweep over a corrupted cache differs from the uncached sweep")
	}
	if sum.CacheMisses != 3 || sum.CacheHits != sum.Scenarios-3 {
		t.Fatalf("corrupted run: %d hits, %d misses, want %d and 3",
			sum.CacheHits, sum.CacheMisses, sum.Scenarios-3)
	}
	if sum.ExecutedTrials == 0 {
		t.Fatal("corrupted entries were not recomputed")
	}

	// The recomputation rewrote the corrupted entries: fully warm again.
	_, healed := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if healed.ExecutedTrials != 0 || healed.CacheMisses != 0 {
		t.Fatalf("store not healed: %d misses, %d trials executed",
			healed.CacheMisses, healed.ExecutedTrials)
	}
}

// TestCacheWriteFailureDegrades checks that an unwritable store disables
// caching mid-sweep instead of aborting: the report is still exact and
// the failure surfaces in the accounting.
func TestCacheWriteFailureDegrades(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	plainStats, _ := collectStats(t, m, SweepConfig{Parallel: 2})
	want := marshalT(t, plainStats)

	c := openCache(t)
	// Block the first scenario's fan-out directory with a regular file,
	// so its Put fails regardless of the test's privileges.
	seeds, window, base := SweepConfig{}.Effective(m.Spec())
	key := Key{ScenarioID: m.At(0).ID(), Registry: Builtin().Version(), BaseSeed: base, Seeds: seeds, Window: window}
	if err := os.WriteFile(filepath.Dir(c.path(key)), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}

	stats, sum := collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})
	if marshalT(t, stats) != want {
		t.Fatal("sweep over an unwritable store differs from the uncached sweep")
	}
	if sum.CacheWriteError == nil {
		t.Fatal("failed store write not surfaced in the summary")
	}
	// The first failed write disabled the store for the rest of the run.
	if n := len(cacheFiles(t, c)); n != 0 {
		t.Fatalf("store holds %d entries after being disabled", n)
	}
}

// TestCacheVersionAndKeyMismatch exercises Get's verification directly:
// entries written under another format version, or sitting at an address
// whose stored key disagrees (a simulated hash collision), are misses.
func TestCacheVersionAndKeyMismatch(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	c := openCache(t)
	sc := m.At(0)
	seeds, window, base := SweepConfig{}.Effective(m.Spec())
	key := Key{ScenarioID: sc.ID(), BaseSeed: base, Seeds: seeds, Window: window}

	st := &Stats{ID: sc.ID(), Trials: seeds, Successes: 1, SuccessRate: 0.5}
	if err := c.Put(key, st); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || marshalT(t, got) != marshalT(t, st) {
		t.Fatalf("Get after Put: ok=%v", ok)
	}

	files := cacheFiles(t, c)
	if len(files) != 1 {
		t.Fatalf("store has %d entries, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	// A future format version is a miss.
	futur := []byte(`{"version":99,` + string(data[len(`{"version":1,`):]))
	if err := os.WriteFile(files[0], futur, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("entry with foreign format version served")
	}

	// An entry whose embedded key disagrees with the address (hash
	// collision, or a file moved by hand) is a miss.
	other := Key{ScenarioID: sc.ID(), BaseSeed: base + 1, Seeds: seeds, Window: window}
	if err := c.Put(other, st); err != nil {
		t.Fatal(err)
	}
	collided, err := os.ReadFile(c.path(other))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), collided, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("entry stored under a different key served")
	}

	// An entry whose stats carry the wrong scenario ID is a miss.
	bogus := &Stats{ID: "someone-else", Trials: seeds}
	if err := c.Put(key, bogus); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("entry with mismatched scenario ID served")
	}
}

// TestCacheConcurrentWriters races writers and readers over the same and
// distinct keys (run under -race in CI): every read serves a complete,
// correct entry or a miss, never a torn one.
func TestCacheConcurrentWriters(t *testing.T) {
	t.Parallel()

	c := openCache(t)
	keys := make([]Key, 8)
	stats := make([]*Stats, len(keys))
	for i := range keys {
		keys[i] = Key{ScenarioID: string(rune('a' + i)), BaseSeed: 1, Seeds: 2, Window: 10}
		stats[i] = &Stats{ID: keys[i].ScenarioID, Trials: 2, Successes: i % 3, SuccessRate: float64(i%3) / 2}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				for i := range keys {
					if err := c.Put(keys[i], stats[i]); err != nil {
						t.Error(err)
						return
					}
					if got, ok := c.Get(keys[i]); ok {
						if got.ID != stats[i].ID || got.Successes != stats[i].Successes {
							t.Errorf("key %d served wrong stats %+v", i, got)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range keys {
		got, ok := c.Get(keys[i])
		if !ok || marshalT(t, got) != marshalT(t, stats[i]) {
			t.Fatalf("key %d not readable after racing writers (ok=%v)", i, ok)
		}
	}
	if n := len(cacheFiles(t, c)); n != len(keys) {
		t.Fatalf("store holds %d entries, want %d", n, len(keys))
	}
}

// TestConcurrentSweepsShareCache runs two cached sweeps of the same
// matrix at once — the shard scenario: multiple processes racing on one
// store — and checks both produce the uncached output.
func TestConcurrentSweepsShareCache(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	plainStats, _ := collectStats(t, m, SweepConfig{Parallel: 2})
	want := marshalT(t, plainStats)

	c := openCache(t)
	var wg sync.WaitGroup
	outs := make([]string, 2)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var stats []*Stats
			_, err := m.Sweep(nil, SweepConfig{
				Parallel: 2,
				Cache:    c,
				OnStats: func(st *Stats) error {
					stats = append(stats, st)
					return nil
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			b := marshalT(t, stats)
			outs[i] = b
		}(i)
	}
	wg.Wait()
	for i, got := range outs {
		if got != want {
			t.Fatalf("concurrent cached sweep %d differs from uncached sweep", i)
		}
	}
}

// TestCacheBypassedWithCustomSeedFn checks that a custom seed derivation
// neither reads nor writes the cache — its trials are not the ones the
// default keys describe.
func TestCacheBypassedWithCustomSeedFn(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	c := openCache(t)
	_, sum := collectStats(t, m, SweepConfig{
		Parallel: 2,
		Cache:    c,
		SeedFn:   func(sc *Scenario, trial int) uint64 { return uint64(trial) + 99 },
	})
	if sum.CacheHits != 0 || sum.CacheMisses != 0 {
		t.Fatalf("custom SeedFn touched the cache: %d hits, %d misses", sum.CacheHits, sum.CacheMisses)
	}
	if n := len(cacheFiles(t, c)); n != 0 {
		t.Fatalf("custom SeedFn wrote %d entries", n)
	}
}

// brokenRegistry returns a registry whose "broken" goal fails every
// universal-user construction at trial time (nil enumerator).
func brokenRegistry() *Registry {
	reg := Builtin()
	reg.Register("broken", func(Axes) (*Parts, error) {
		return &Parts{
			Goal:   &failGoal{},
			Enum:   nil,
			Sense:  func() sensing.Sense { return sensing.Const(true) },
			Member: func(int) comm.Strategy { return server.Obstinate() },
		}, nil
	})
	return reg
}

// brokenSpec is a one-scenario space over the broken goal.
func brokenSpec() *Spec {
	return &Spec{
		Name: "broken",
		Axes: []Axis{
			{Name: "goal", Values: []string{"broken"}},
			{Name: "server", Values: Ints(0)},
			{Name: "rounds", Values: Ints(10)},
		},
		Seeds: 2,
	}
}

// TestCacheSkipsErroredScenarios checks that scenarios with trial errors
// are recomputed every run instead of being stored, even on a versioned
// (cacheable) registry.
func TestCacheSkipsErroredScenarios(t *testing.T) {
	t.Parallel()

	reg := brokenRegistry()
	reg.version = "test/broken/1"
	m, err := NewMatrix(brokenSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := openCache(t)
	for run := 0; run < 2; run++ {
		sum, err := m.Sweep(nil, SweepConfig{Registry: reg, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Errors != 2 || sum.CacheHits != 0 {
			t.Fatalf("run %d: %d errors, %d hits — errored scenario served from cache",
				run, sum.Errors, sum.CacheHits)
		}
		if sum.CacheMisses != 1 {
			t.Fatalf("run %d: %d misses — cache not consulted on a versioned registry", run, sum.CacheMisses)
		}
	}
	if n := len(cacheFiles(t, c)); n != 0 {
		t.Fatalf("errored scenario stored: %d entries", n)
	}
}

// TestCacheBypassedWithUnversionedRegistry checks the registry contract:
// Register resets the version, an unversioned registry never touches the
// cache (its binding semantics have no stable identity to key entries
// by), and a version restores cacheability under a key space of its own.
func TestCacheBypassedWithUnversionedRegistry(t *testing.T) {
	t.Parallel()

	if v := Builtin().Version(); v == "" {
		t.Fatal("builtin registry is unversioned")
	}
	reg := brokenRegistry() // Register resets the version
	if v := reg.Version(); v != "" {
		t.Fatalf("Register left version %q, want unversioned", v)
	}

	// The spec avoids the broken goal: execution succeeds, but the
	// unversioned registry must still bypass the cache entirely.
	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Restrict("goal", "printing"); err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := openCache(t)
	_, sum := collectStats(t, m, SweepConfig{Registry: reg, Cache: c})
	if sum.CacheHits != 0 || sum.CacheMisses != 0 {
		t.Fatalf("unversioned registry touched the cache: %d hits, %d misses",
			sum.CacheHits, sum.CacheMisses)
	}
	if n := len(cacheFiles(t, c)); n != 0 {
		t.Fatalf("unversioned registry stored %d entries", n)
	}

	// Declaring a version opts back in…
	reg.version = "test/extended/1"
	_, cold := collectStats(t, m, SweepConfig{Registry: reg, Cache: c})
	if cold.CacheMisses != cold.Scenarios {
		t.Fatalf("versioned registry: %d misses over %d scenarios", cold.CacheMisses, cold.Scenarios)
	}
	_, warm := collectStats(t, m, SweepConfig{Registry: reg, Cache: c})
	if warm.CacheHits != warm.Scenarios || warm.ExecutedTrials != 0 {
		t.Fatalf("versioned registry not warm: %d hits, %d trials executed",
			warm.CacheHits, warm.ExecutedTrials)
	}

	// …under a key space the builtin registry's sweeps do not share.
	_, builtinCold := collectStats(t, m, SweepConfig{Cache: c})
	if builtinCold.CacheHits != 0 {
		t.Fatalf("builtin sweep hit %d entries stored under test/extended/1", builtinCold.CacheHits)
	}
}

// TestSweepSampleCacheReuse checks cross-selection reuse: a cached full
// sweep warms every sampled sweep, because keys are content-derived, not
// positional.
func TestSweepSampleCacheReuse(t *testing.T) {
	t.Parallel()

	m := quickMatrix(t)
	c := openCache(t)
	collectStats(t, m, SweepConfig{Parallel: 2, Cache: c})

	indices := m.Sample(5, 3)
	var sampled []*Stats
	sum, err := m.Sweep(indices, SweepConfig{
		Parallel: 2,
		Cache:    c,
		OnStats: func(st *Stats) error {
			sampled = append(sampled, st)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ExecutedTrials != 0 || sum.CacheHits != len(indices) {
		t.Fatalf("sampled sweep over a warm store: %d hits, %d trials executed",
			sum.CacheHits, sum.ExecutedTrials)
	}
	if len(sampled) != len(indices) {
		t.Fatalf("%d stats for %d sampled scenarios", len(sampled), len(indices))
	}
}
