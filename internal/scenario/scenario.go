package scenario

import (
	"fmt"
	"sort"
	"strconv"
)

// AxisValue is one resolved (axis, value) coordinate of a scenario.
type AxisValue struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Scenario is one point of a scenario space: a full assignment of a value
// to every axis. Scenarios are decoded on demand from a Matrix index; the
// identity of a scenario is its content (see ID), not its position.
type Scenario struct {
	// Values are the resolved coordinates, in spec axis order. Values
	// must not be mutated after the first Hash or ID call: both are
	// content-derived and memoized on first use.
	Values []AxisValue

	hash   uint64 // memoized Hash
	hashOK bool
	id     string // memoized ID
}

// findAxis looks a coordinate up by axis name.
func findAxis(values []AxisValue, name string) (string, bool) {
	for _, av := range values {
		if av.Name == name {
			return av.Value, true
		}
	}
	return "", false
}

// Get returns the value assigned to the named axis.
func (sc *Scenario) Get(name string) (string, bool) {
	return findAxis(sc.Values, name)
}

// Str returns the named axis value, or def when the axis is absent.
func (sc *Scenario) Str(name, def string) string {
	if v, ok := sc.Get(name); ok {
		return v
	}
	return def
}

// Int returns the named axis value parsed as an int, or def when the axis
// is absent. A present but unparsable value is an error.
func (sc *Scenario) Int(name string, def int) (int, error) {
	v, ok := sc.Get(name)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("scenario: axis %q: %q is not an int", name, v)
	}
	return n, nil
}

// Float returns the named axis value parsed as a float64, or def when the
// axis is absent. A present but unparsable value is an error.
func (sc *Scenario) Float(name string, def float64) (float64, error) {
	v, ok := sc.Get(name)
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario: axis %q: %q is not a float", name, v)
	}
	return f, nil
}

// FNV-1a parameters shared by every content hash in the package
// (scenario IDs, sweep fingerprints, cache entry addresses).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// fnv1a folds s into a running 64-bit FNV-1a hash.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// fnv1aLine folds s plus a terminating newline, so consecutive fields
// cannot collide by shifting bytes across their boundary.
func fnv1aLine(h uint64, s string) uint64 {
	return fnv1a(fnv1a(h, s), "\n")
}

// Hash is the scenario's content hash: FNV-1a over the sorted,
// length-prefixed "axis=value" coordinates. It is invariant under axis
// reordering and under the scenario's position in any enumeration, so the
// same configuration hashes identically across specs that merely permute
// or extend value lists. The length prefixes make the encoding injective:
// names or values containing the separator characters cannot collide with
// a different coordinate assignment.
// The hash is memoized: the per-trial seed derivation calls Hash once
// per trial, so only the first call pays for encoding and sorting.
func (sc *Scenario) Hash() uint64 {
	if sc.hashOK {
		return sc.hash
	}
	keys := make([]string, len(sc.Values))
	var b []byte
	for i, av := range sc.Values {
		// "%d:%s=%d:%s" with the coordinate's lengths and strings.
		b = strconv.AppendInt(b[:0], int64(len(av.Name)), 10)
		b = append(b, ':')
		b = append(b, av.Name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(len(av.Value)), 10)
		b = append(b, ':')
		b = append(b, av.Value...)
		keys[i] = string(b)
	}
	sort.Strings(keys)
	h := uint64(offset64)
	for _, k := range keys {
		h = fnv1aLine(h, k)
	}
	sc.hash, sc.hashOK = h, true
	return h
}

// ID is the scenario's stable content-derived identifier: the goal axis
// value (when present) plus the 16-hex-digit content hash. Two scenarios
// share an ID iff they assign the same values to the same axes.
// The ID string is memoized alongside the hash.
func (sc *Scenario) ID() string {
	if sc.id != "" {
		return sc.id
	}
	if g, ok := sc.Get("goal"); ok {
		sc.id = fmt.Sprintf("%s-%016x", g, sc.Hash())
	} else {
		sc.id = fmt.Sprintf("%016x", sc.Hash())
	}
	return sc.id
}

// String renders the scenario as its coordinates, for logs.
func (sc *Scenario) String() string {
	s := sc.ID()
	for _, av := range sc.Values {
		s += " " + av.Name + "=" + av.Value
	}
	return s
}
