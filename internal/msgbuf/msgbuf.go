// Package msgbuf provides the allocation-discipline substrate for the
// engine's hot path: an append-only string arena and two memo shapes for
// pure message functions.
//
// The three-party round loop builds the same handful of messages millions
// of times per sweep. The helpers here let worlds, servers and user
// strategies share the resulting immutable strings instead of rebuilding
// them, so the steady-state loop allocates nothing: Arena packs strings
// that never repeat into one block, Memo1 remembers the last result of a
// pure function, and Table remembers a capped set of them.
//
// The package is dependency-free by design so every layer (comm, goal
// packages, the engine) can use it.
package msgbuf

import "strings"

// Arena is a bump allocator for immutable strings whose values never
// repeat — message streams with unbounded identifiers (a learning run's
// query ids) that no cache or interner can collapse. Individually such
// strings cost one allocation each; an Arena packs them back to back
// into one shared block, so a whole execution's worth costs one block
// allocation.
//
// Safety: the arena only ever appends. Bytes underlying a returned
// string are never rewritten — Reset abandons the current block to the
// strings already carved from it and starts a fresh one — so returned
// strings stay valid forever, exactly like individually allocated ones.
// The block is a strings.Builder, whose String views are the language's
// sanctioned way to expose a growing buffer as immutable strings. An
// Arena is not safe for concurrent use. The zero value is ready to use.
type Arena struct {
	b   strings.Builder
	off int // start of the not-yet-returned tail of the block
	hwm int // high-water mark: bytes used last cycle, sizes the next block
}

// Append copies p into the arena and returns it as a string.
func (a *Arena) Append(p []byte) string {
	if a.b.Cap() == 0 {
		// Fresh block: pre-size to the previous cycle's usage so a
		// steady-state caller pays exactly one allocation per Reset
		// cycle instead of a doubling growth sequence.
		n := a.hwm
		if n < 256 {
			n = 256
		}
		a.b.Grow(n)
	}
	a.b.Write(p)
	s := a.b.String()
	out := s[a.off:]
	a.off = len(s)
	return out
}

// Reset starts a fresh block, abandoning the current one to the strings
// already returned (which remain valid). Call it wherever the owning
// strategy's Reset runs, so each execution reuses the arena's sizing
// without any execution's strings aliasing another's storage.
func (a *Arena) Reset() {
	if used := a.b.Len(); used > a.hwm {
		a.hwm = used
	}
	a.b.Reset()
	a.off = 0
}

// Memo1 is a single-entry memo for pure functions on the hot path: the
// common steady state — a strategy re-sending one command every other
// round — hits the same key repeatedly, so one slot suffices. The zero
// value is ready to use.
type Memo1[K comparable, V any] struct {
	key K
	val V
	ok  bool
}

// Get returns the memoized value for k, if that is what is stored.
func (m *Memo1[K, V]) Get(k K) (V, bool) {
	if m.ok && m.key == k {
		return m.val, true
	}
	var zero V
	return zero, false
}

// Full reports whether the memo holds an entry.
func (m *Memo1[K, V]) Full() bool { return m.ok }

// Put stores v as the value for k, displacing any previous entry.
func (m *Memo1[K, V]) Put(k K, v V) {
	m.key, m.val, m.ok = k, v, true
}

// Reset clears the memo (dropping any references its entry holds).
func (m *Memo1[K, V]) Reset() {
	var zero Memo1[K, V]
	*m = zero
}

// Table is a lazily-allocated, entry-capped map memo for pure functions
// whose hot keys cycle through a small set (a transfer user's K store
// commands, a dialect's translations). Past DefaultTableCap entries, Put
// is a no-op: lookups stay correct, new keys just stop being remembered.
// The zero value is ready to use.
type Table[K comparable, V any] struct {
	m map[K]V
}

// DefaultTableCap bounds every Table.
const DefaultTableCap = 128

// Get returns the memoized value for k.
func (t *Table[K, V]) Get(k K) (V, bool) {
	v, ok := t.m[k]
	return v, ok
}

// Put stores v for k if the table has room.
func (t *Table[K, V]) Put(k K, v V) {
	if t.m == nil {
		t.m = make(map[K]V, 8)
	}
	if len(t.m) < DefaultTableCap {
		t.m[k] = v
	}
}

// Reset clears the table, keeping its storage for reuse.
func (t *Table[K, V]) Reset() { clear(t.m) }
