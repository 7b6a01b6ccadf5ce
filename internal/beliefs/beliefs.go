// Package beliefs implements prior-weighted enumeration, the direction
// opened by Juba and Sudan's "Efficient Semantic Communication via
// Compatible Beliefs" (ICS 2011), which the paper's closing section points
// to: universal users need not pay the full enumeration overhead when user
// and server have compatible beliefs about which protocols are likely.
//
// A Prior is a probability distribution over strategy indices. A user whose
// beliefs are compatible with the process selecting the server enumerates
// candidates in order of decreasing prior mass; the expected number of
// candidates tried is then the expected rank, which for concentrated priors
// is O(1) instead of N/2.
package beliefs

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/enumerate"
	"repro/internal/xrand"
)

// Prior is a normalized probability distribution over the indices
// [0, Len()) of a strategy enumeration (or server class). A Prior is
// immutable after construction: the cumulative-weight table, enumeration
// order and expected rank are computed once in FromWeights, so Sample,
// Order and ExpectedRank are allocation-free on every call (and safe for
// concurrent readers).
type Prior struct {
	weights []float64
	cum     []float64 // cum[i] = weights[0] + ... + weights[i], the Sample CDF
	order   []int     // indices by decreasing weight, ties by index
	expRank float64
}

// FromWeights builds a prior proportional to the given non-negative
// weights. It returns an error if the weights are empty, negative, NaN or
// all zero.
func FromWeights(ws []float64) (*Prior, error) {
	if len(ws) == 0 {
		return nil, errors.New("beliefs: empty weights")
	}
	sum := 0.0
	for i, w := range ws {
		if math.IsNaN(w) || w < 0 {
			return nil, fmt.Errorf("beliefs: weight %d is invalid (%v)", i, w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, errors.New("beliefs: all weights zero")
	}
	normalized := make([]float64, len(ws))
	for i, w := range ws {
		normalized[i] = w / sum
	}
	p := &Prior{weights: normalized}
	// The CDF must accumulate in index order with the same additions the
	// old linear-scan Sample performed, so binary search lands on exactly
	// the index the scan returned (float rounding included).
	p.cum = make([]float64, len(normalized))
	acc := 0.0
	for i, w := range normalized {
		acc += w
		p.cum[i] = acc
	}
	p.order = make([]int, len(normalized))
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool {
		return p.weights[p.order[a]] > p.weights[p.order[b]]
	})
	for rank, idx := range p.order {
		p.expRank += p.weights[idx] * float64(rank+1)
	}
	return p, nil
}

// Zipf returns a Zipf prior over n indices with exponent s: weight of index
// i proportional to 1/(i+1)^s. s = 0 is uniform; larger s concentrates mass
// on small indices.
func Zipf(n int, s float64) (*Prior, error) {
	if n < 1 {
		return nil, fmt.Errorf("beliefs: zipf prior needs n >= 1, got %d", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("beliefs: zipf exponent must be >= 0, got %v", s)
	}
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = math.Pow(float64(i+1), -s)
	}
	return FromWeights(ws)
}

// Len returns the support size.
func (p *Prior) Len() int { return len(p.weights) }

// Weight returns the normalized probability of index i.
func (p *Prior) Weight(i int) float64 {
	if i < 0 || i >= len(p.weights) {
		return 0
	}
	return p.weights[i]
}

// Order returns the indices sorted by decreasing weight, ties broken by
// index — the enumeration order of a belief-compatible universal user.
// The slice is computed once at construction and shared across calls;
// callers must not modify it (Reorder and enumerate.Reordered copy it).
func (p *Prior) Order() []int { return p.order }

// Sample draws an index from the prior by binary search over the
// precomputed cumulative-weight table: O(log n) per draw and
// allocation-free, returning exactly the index a linear scan of the
// weights would (the CDF stores the scan's own partial sums). Used by
// workloads to select the actual server according to the same
// distribution the user believes in (compatible beliefs) or a different
// one (incompatible).
func (p *Prior) Sample(r *xrand.Rand) int {
	u := r.Float64()
	// First index whose cumulative weight exceeds u — the linear scan's
	// "u < acc" stop condition.
	i := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] > u })
	if i == len(p.cum) {
		return len(p.cum) - 1
	}
	return i
}

// ExpectedRank returns the expected 1-based position of the true index in
// the prior's enumeration order when the true index is itself drawn from
// the prior — the analytic prediction for "expected candidates tried".
// Computed once at construction; repeat calls are allocation-free.
func (p *Prior) ExpectedRank() float64 { return p.expRank }

// Reorder returns base's strategies visited in order of decreasing prior
// mass. The prior's support must match the enumerator's size.
func Reorder(base enumerate.Enumerator, p *Prior) (enumerate.Enumerator, error) {
	if base.Size() != p.Len() {
		return nil, fmt.Errorf("beliefs: prior support %d does not match enumerator size %d",
			p.Len(), base.Size())
	}
	return enumerate.Reordered(base, p.Order())
}
