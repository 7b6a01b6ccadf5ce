package scenario

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
//
// Each coordinate is encoded as "len(name):name=len(value):value" and the
// encodings are folded, each with a trailing newline, in byte order. The
// encodings are never built: Hash sorts the coordinates' indices with
// compareCoords and folds each one's pieces, so its only allocation is the
// index slice of a scenario with more than 16 axes. The hash is memoized:
// the per-trial seed derivation calls Hash once per trial.
func (sc *Scenario) Hash() uint64 {
	if sc.hashOK {
		return sc.hash
	}
	var stack [16]int
	order := stack[:0]
	if len(sc.Values) > len(stack) {
		order = make([]int, 0, len(sc.Values))
	}
	for i := range sc.Values {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int { return compareCoords(&sc.Values[i], &sc.Values[j]) })
	var digits [20]byte
	h := uint64(offset64)
	for _, i := range order {
		av := &sc.Values[i]
		h = fnv1a(h, string(strconv.AppendInt(digits[:0], int64(len(av.Name)), 10)))
		h = fnv1a(fnv1a(fnv1a(h, ":"), av.Name), "=")
		h = fnv1a(h, string(strconv.AppendInt(digits[:0], int64(len(av.Value)), 10)))
		h = fnv1aLine(fnv1a(h, ":"), av.Value)
	}
	sc.hash, sc.hashOK = h, true
	return h
}

// compareCoords orders two coordinates as the byte order of their
// encodings "len(name):name=len(value):value". Piece by piece that is the
// length prefixes with their colons, then names of one length, then the
// same for the values: a prefix such as "1:" sorts after "10:" because
// ':' follows the digits.
func compareCoords(a, b *AxisValue) int {
	if c := compareLenPrefixes(len(a.Name), len(b.Name)); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := compareLenPrefixes(len(a.Value), len(b.Value)); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// compareLenPrefixes compares the encodings' "<decimal length>:" pieces.
func compareLenPrefixes(x, y int) int {
	if x == y {
		return 0
	}
	var bx, by [21]byte
	return bytes.Compare(append(strconv.AppendInt(bx[:0], int64(x), 10), ':'), append(strconv.AppendInt(by[:0], int64(y), 10), ':'))
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
