package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Matrix is the lazy expansion of a Spec: scenarios are decoded from
// their index on demand, so a Matrix over a huge space is as cheap as one
// over a handful of points. A flat spec expands to one mixed-radix
// cross-product; a composed spec is first canonicalized (see
// Spec.Canonical) and expands to the concatenation of its blocks'
// cross-products in canonical block order.
type Matrix struct {
	spec *Spec
	size int64
	segs []segment // one per block of a composed spec; nil when flat
}

// segment is one block's slice of a composed matrix's index range.
type segment struct {
	axes   []Axis
	offset int64 // first index of the segment
}

// NewMatrix validates the spec and prepares its expansion. For a composed
// spec the matrix expands the canonical form — retrieve it via Spec when
// the authored and enumerated shapes must agree (fingerprints and
// envelopes always do, because Fingerprint canonicalizes too).
func NewMatrix(spec *Spec) (*Matrix, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Canonical()
	if len(spec.Blocks) > 0 {
		m := &Matrix{spec: spec, segs: make([]segment, 0, len(spec.Blocks))}
		for i, b := range spec.Blocks {
			bsize, err := crossSize(spec.Name, b.Axes)
			if err != nil {
				return nil, err
			}
			if m.size > math.MaxInt64-bsize {
				return nil, fmt.Errorf("scenario: spec %q block union overflows int64", spec.Name)
			}
			m.segs = append(m.segs, segment{axes: spec.Blocks[i].Axes, offset: m.size})
			m.size += bsize
		}
		return m, nil
	}
	size, err := crossSize(spec.Name, spec.Axes)
	if err != nil {
		return nil, err
	}
	return &Matrix{spec: spec, size: size}, nil
}

// crossSize returns the cross-product size of one axis list, guarding
// against int64 overflow.
func crossSize(specName string, axes []Axis) (int64, error) {
	size := int64(1)
	for _, ax := range axes {
		n := int64(len(ax.Values))
		if size > math.MaxInt64/n {
			return 0, fmt.Errorf("scenario: spec %q cross-product overflows int64", specName)
		}
		size *= n
	}
	return size, nil
}

// Spec returns the spec the matrix expands: the authored spec when flat,
// its canonical form when composed.
func (m *Matrix) Spec() *Spec { return m.spec }

// Size returns the number of scenarios in the space.
func (m *Matrix) Size() int64 { return m.size }

// At decodes the i-th scenario (0 ≤ i < Size). Within an axis list the
// first axis varies slowest: index 0 assigns every axis its first value.
func (m *Matrix) At(i int64) *Scenario {
	if i < 0 || i >= m.size {
		panic(fmt.Sprintf("scenario: index %d out of range [0,%d)", i, m.size))
	}
	axes := m.spec.Axes
	rem := i
	if m.segs != nil {
		// The segment holding i: the last one starting at or before it.
		lo, hi := 0, len(m.segs)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if m.segs[mid].offset <= i {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		axes = m.segs[lo].axes
		rem = i - m.segs[lo].offset
	}
	sc := &Scenario{Values: make([]AxisValue, len(axes))}
	for a := len(axes) - 1; a >= 0; a-- {
		ax := &axes[a]
		n := int64(len(ax.Values))
		sc.Values[a] = AxisValue{Name: ax.Name, Value: ax.Values[rem%n]}
		rem /= n
	}
	return sc
}

// Each enumerates every scenario in index order, stopping at the first
// error from fn.
func (m *Matrix) Each(fn func(*Scenario) error) error {
	for i := int64(0); i < m.size; i++ {
		if err := fn(m.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// Sample draws n distinct scenario indices uniformly without replacement,
// deterministically per seed, returned in ascending order so sweeps over a
// sample stream in enumeration order. When n ≥ Size every index is
// returned. It uses Floyd's algorithm, so sampling a handful of points
// from a billion-scenario space costs O(n), not O(Size).
func (m *Matrix) Sample(n int, seed uint64) []int64 {
	if int64(n) >= m.size {
		all := make([]int64, m.size)
		for i := range all {
			all[i] = int64(i)
		}
		return all
	}
	if n <= 0 {
		return nil
	}
	r := xrand.New(seed)
	// intn draws from [0, bound) for int64 bounds; the modulo bias is
	// ≤ bound/2^63, far below anything observable.
	intn := func(bound int64) int64 {
		return int64(r.Uint64() % uint64(bound))
	}
	chosen := make(map[int64]bool, n)
	for j := m.size - int64(n); j < m.size; j++ {
		t := intn(j + 1)
		if chosen[t] {
			chosen[j] = true
		} else {
			chosen[t] = true
		}
	}
	out := make([]int64, 0, n)
	for i := range chosen {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
