// Package scenario is the declarative scenario-space subsystem: it turns
// hand-coded experiment grids into data.
//
// A Spec names the axes of a scenario space — goal and world parameters,
// user strategy, the server class member and its wrappers (adversaries,
// slowness, noise, the unhelpful probe), horizons — and a Matrix expands
// their cross-product lazily: scenarios are decoded from an index on
// demand, never materialized as a slice, so billion-point spaces cost
// nothing to declare. Sample draws deterministic random subsets of huge
// spaces; every expanded Scenario carries a stable content-derived ID that
// does not depend on axis order or position in the enumeration.
//
// A Registry maps a scenario's axis values to concrete parties (the
// built-in registry covers the stock goals and server transforms), and
// Matrix.Sweep streams scenarios through the batch execution engine with
// online per-scenario aggregation — success rate, rounds-to-success
// distribution, message overhead — so sweeps never hold per-trial results.
// Sweep output is byte-identical at every parallelism level.
// Matrix.Claims joins each swept row to Theorem 1: it certifies the
// hypothesis on the row's own binding at each trial's seed and gives the
// row a verdict (holds, late, outside or counterexample).
//
// # The trial-determinism contract
//
// Everything downstream of Sweep — sharding (Shard, MergeShards), result
// caching (Cache), and the coordinator/worker backend in
// repro/internal/dist — rests on one invariant: a scenario's trials depend
// only on the scenario's content and the sweep's effective parameters,
// never on where (or whether) the scenario appears in an enumeration,
// sample or shard. The default seed derivation is
//
//	system.DeriveSeed(baseSeed ^ scenario.Hash(), trial)
//
// where Hash is the content hash over sorted coordinates, so the same
// coordinates run the same trials everywhere. That is why a sharded,
// cached, sampled or distributed sweep can promise byte-identical reports
// against a fresh serial run.
//
// # Cache-key semantics
//
// A cache Key is (scenario ID, registry version, base seed, trials per
// scenario, window): the scenario's content plus everything else the
// aggregate depends on short of the execution itself. The registry
// version is the subtle member — builders are code, and the cache cannot
// observe whether re-registering a goal preserved the meaning of
// previously stored aggregates. So Register leaves a registry
// unversioned, and an unversioned registry bypasses the cache entirely.
// Only Builtin() versions one: it sets the stock version after its
// Register calls, and that version is bumped whenever a stock builder's
// behavior changes. A custom registry, or a Builtin() one after a further
// Register, is never cached.
//
// # Fingerprint canonicalization caveat
//
// Fingerprint — the digest that keys cross-run caches and refuses merges
// of shards from different sweeps — hashes the spec's axes in declaration
// order with their value lists in enumeration order, because that order
// fixes the index mapping shards are cut against. It is deliberately NOT
// invariant under axis reordering (scenario IDs are; fingerprints are
// not): two specs that denote the same point set with permuted axes
// enumerate it differently, so their shards must not merge. The flip side
// is that composed or generated specs must canonicalize axis and value
// order before fingerprinting, or identical spaces will miss each other's
// shards and cache restore keys.
package scenario
