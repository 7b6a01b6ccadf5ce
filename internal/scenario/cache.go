package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// cacheVersion is bumped whenever the aggregate format or the execution
// semantics behind it change; entries carrying any other version are
// treated as misses and rewritten on the next execution.
const cacheVersion = 1

// Key identifies one scenario's aggregate in the result cache: everything
// the aggregate depends on besides the (deterministic) execution itself,
// including the version of the registry that bound the scenario to
// parties — two registries binding the same coordinates differently must
// not share entries. The scenario ID is content-derived, so a key is
// invariant under axis reordering, enumeration position, sampling and
// sharding — any sweep that visits the same coordinates under the same
// seed discipline and registry semantics reuses the same entry.
type Key struct {
	ScenarioID string
	Registry   string
	BaseSeed   uint64
	Seeds      int
	Window     int
}

// String renders the canonical key the entry is addressed and verified
// by.
func (k Key) String() string {
	return fmt.Sprintf("v%d|%d:%s|reg=%d:%s|base=%d|seeds=%d|window=%d",
		cacheVersion, len(k.ScenarioID), k.ScenarioID, len(k.Registry), k.Registry,
		k.BaseSeed, k.Seeds, k.Window)
}

// Cache is a content-addressed store of per-scenario sweep aggregates on
// the filesystem. Entries are addressed by a hash of their canonical Key
// and verified against the full key on read, so hash collisions,
// truncated or corrupted files, and version mismatches all degrade to
// cache misses — the sweep falls back to re-execution and overwrites the
// bad entry, never to wrong results. Writes are atomic (temp file +
// rename), so concurrent writers — parallel shards sharing one store, or
// CI runs racing on a restored cache — can interleave freely: sweeps are
// deterministic, every writer of a key writes identical bytes, and a
// reader sees either a complete entry or a miss.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path addresses an entry by content: FNV-1a of the canonical key,
// fanned out git-style into a two-hex-digit subdirectory.
func (c *Cache) path(k Key) string {
	name := fmt.Sprintf("%016x.json", fnv1a(offset64, k.String()))
	return filepath.Join(c.dir, name[:2], name[2:])
}

// cacheEntry is the on-disk envelope: the format version and full key
// travel with the aggregate so Get can verify them.
type cacheEntry struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Stats   *Stats `json:"stats"`
}

// Get returns the cached aggregate for k, or ok=false on any miss —
// absent, unreadable, corrupted or truncated entries, format-version
// mismatches, and key mismatches (a different key hashing to the same
// address) all report a miss rather than an error, because every miss
// has the same correct remedy: re-execute the scenario.
func (c *Cache) Get(k Key) (*Stats, bool) {
	data, err := os.ReadFile(c.path(k))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		mCacheHeals.Inc()
		return nil, false
	}
	if e.Version != cacheVersion || e.Key != k.String() {
		mCacheHeals.Inc()
		return nil, false
	}
	if e.Stats == nil || e.Stats.ID != k.ScenarioID {
		mCacheHeals.Inc()
		return nil, false
	}
	return e.Stats, true
}

// Put stores an aggregate under k, atomically: the entry is written to a
// temp file in the destination directory and renamed into place, so no
// reader ever observes a partial entry no matter how many writers race.
func (c *Cache) Put(k Key, st *Stats) error {
	path := c.path(k)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scenario: cache put: %w", err)
	}
	data, err := json.Marshal(cacheEntry{Version: cacheVersion, Key: k.String(), Stats: st})
	if err != nil {
		return fmt.Errorf("scenario: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("scenario: cache put: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("scenario: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("scenario: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("scenario: cache put: %w", err)
	}
	return nil
}
