// Package fst implements finite-state transducers (deterministic Mealy
// machines) and a total enumeration of them.
//
// The theory's universal users "enumerate all relevant user strategies".
// For that phrase to be executable we need a concrete, countable, total
// program space whose every index is a runnable strategy. Finite-state
// transducers over small alphabets are that space: Space(n, a, b) is the set
// of all Mealy machines with n states, input alphabet of size a and output
// alphabet of size b, and every index in [0, Size) decodes (mixed-radix) to
// exactly one machine.
package fst

import (
	"fmt"
	"math"
)

// Machine is a deterministic Mealy machine. For state q and input symbol s,
// Next[q*NumIn+s] is the successor state and Out[q*NumIn+s] the emitted
// output symbol. State 0 is initial.
type Machine struct {
	NumStates int
	NumIn     int
	NumOut    int
	Next      []int
	Out       []int
}

// Step consumes one input symbol from the given state and returns the next
// state and the emitted output symbol. It returns an error on out-of-range
// state or symbol; machines produced by Space.Machine never trigger it.
func (m *Machine) Step(state, in int) (next, out int, err error) {
	if state < 0 || state >= m.NumStates {
		return 0, 0, fmt.Errorf("fst: state %d out of range [0,%d)", state, m.NumStates)
	}
	if in < 0 || in >= m.NumIn {
		return 0, 0, fmt.Errorf("fst: input %d out of range [0,%d)", in, m.NumIn)
	}
	i := state*m.NumIn + in
	return m.Next[i], m.Out[i], nil
}

// Space is the set of all Mealy machines with fixed dimensions. Each
// transition-table cell has NumStates*NumOut possible values and there are
// NumStates*NumIn cells, so the space has (NumStates*NumOut)^(NumStates*NumIn)
// machines.
type Space struct {
	NumStates int
	NumIn     int
	NumOut    int
}

// Valid reports whether the dimensions describe a non-empty space.
func (s Space) Valid() bool {
	return s.NumStates >= 1 && s.NumIn >= 1 && s.NumOut >= 1
}

// Size returns the number of machines in the space, saturating at
// math.MaxUint64 when the count overflows 64 bits.
func (s Space) Size() uint64 {
	if !s.Valid() {
		return 0
	}
	base := uint64(s.NumStates) * uint64(s.NumOut)
	cells := s.NumStates * s.NumIn
	size := uint64(1)
	for i := 0; i < cells; i++ {
		if size > math.MaxUint64/base {
			return math.MaxUint64
		}
		size *= base
	}
	return size
}

// Machine decodes index (taken modulo Size when the space is not saturated)
// into a machine. The decoding is mixed-radix: each cell's (next state,
// output) pair is one digit in base NumStates*NumOut. It returns an error on
// an invalid space.
func (s Space) Machine(index uint64) (*Machine, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("fst: invalid space %+v", s)
	}
	base := uint64(s.NumStates) * uint64(s.NumOut)
	cells := s.NumStates * s.NumIn
	m := &Machine{
		NumStates: s.NumStates,
		NumIn:     s.NumIn,
		NumOut:    s.NumOut,
		Next:      make([]int, cells),
		Out:       make([]int, cells),
	}
	x := index
	for i := 0; i < cells; i++ {
		digit := x % base
		x /= base
		m.Next[i] = int(digit % uint64(s.NumStates))
		m.Out[i] = int(digit / uint64(s.NumStates))
	}
	return m, nil
}

// Index re-encodes a machine of this space's dimensions back to its index.
// It is the inverse of Machine for indices below Size. It returns an error
// if the machine's dimensions do not match the space.
func (s Space) Index(m *Machine) (uint64, error) {
	if m.NumStates != s.NumStates || m.NumIn != s.NumIn || m.NumOut != s.NumOut {
		return 0, fmt.Errorf("fst: machine dims (%d,%d,%d) do not match space (%d,%d,%d)",
			m.NumStates, m.NumIn, m.NumOut, s.NumStates, s.NumIn, s.NumOut)
	}
	base := uint64(s.NumStates) * uint64(s.NumOut)
	cells := s.NumStates * s.NumIn
	var index uint64
	for i := cells - 1; i >= 0; i-- {
		digit := uint64(m.Out[i])*uint64(s.NumStates) + uint64(m.Next[i])
		index = index*base + digit
	}
	return index, nil
}
