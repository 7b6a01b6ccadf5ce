// Package enumerate provides total enumerations of user strategies.
//
// The universal users of the theory work by enumerating candidate
// strategies: the compact-goal user switches to the next candidate on a
// negative sensing indication, and the finite-goal user dovetails candidates
// Levin-style. An Enumerator is the executable form of "an enumeration of
// the relevant class of user strategies": every index maps to a runnable
// strategy, deterministically.
package enumerate

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/fst"
	"repro/internal/xrand"
)

// Unbounded is returned by Size for enumerators over effectively infinite
// strategy classes.
const Unbounded = -1

// Enumerator is a total, indexable class of user strategies.
//
// Strategy must return a fresh strategy instance on every call: universal
// users Reset and interleave candidates, so shared state between calls would
// corrupt runs.
type Enumerator interface {
	// Name identifies the class in tables and logs.
	Name() string

	// Size returns the number of distinct strategies, or Unbounded.
	Size() int

	// Strategy returns the i-th strategy, for any i >= 0. Bounded
	// enumerators wrap indices modulo Size.
	Strategy(i int) comm.Strategy
}

type funcEnum struct {
	name string
	size int
	f    func(i int) comm.Strategy
}

var _ Enumerator = (*funcEnum)(nil)

// FromFunc builds an enumerator from an index-to-strategy function. size
// may be Unbounded. It panics on a nil function or size == 0, which are
// programming errors, not runtime conditions.
func FromFunc(name string, size int, f func(i int) comm.Strategy) Enumerator {
	if f == nil {
		panic("enumerate: FromFunc requires a non-nil function")
	}
	if size == 0 || size < Unbounded {
		panic(fmt.Sprintf("enumerate: invalid size %d", size))
	}
	return &funcEnum{name: name, size: size, f: f}
}

func (e *funcEnum) Name() string { return e.name }
func (e *funcEnum) Size() int    { return e.size }

func (e *funcEnum) Strategy(i int) comm.Strategy {
	if i < 0 {
		i = -i
	}
	if e.size > 0 {
		i %= e.size
	}
	return e.f(i)
}

// Reordered visits base's strategies in the given order: the i-th strategy
// of the result is base.Strategy(order[i]). It returns an error unless
// order is a permutation of [0, base.Size()).
func Reordered(base Enumerator, order []int) (Enumerator, error) {
	n := base.Size()
	if n == Unbounded {
		return nil, fmt.Errorf("enumerate: cannot reorder unbounded enumerator %q", base.Name())
	}
	if len(order) != n {
		return nil, fmt.Errorf("enumerate: order has %d entries, base %q has %d", len(order), base.Name(), n)
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if idx < 0 || idx >= n || seen[idx] {
			return nil, fmt.Errorf("enumerate: order is not a permutation of [0,%d)", n)
		}
		seen[idx] = true
	}
	copied := make([]int, n)
	copy(copied, order)
	return FromFunc(base.Name()+"/reordered", n, func(i int) comm.Strategy {
		return base.Strategy(copied[i])
	}), nil
}

// Shuffled returns base's strategies in a uniform random order derived from
// seed — the "no prior knowledge" baseline in overhead experiments.
func Shuffled(base Enumerator, seed uint64) (Enumerator, error) {
	n := base.Size()
	if n == Unbounded {
		return nil, fmt.Errorf("enumerate: cannot shuffle unbounded enumerator %q", base.Name())
	}
	return Reordered(base, xrand.New(seed).Perm(n))
}

// SymbolCodec translates between the message-profile world of strategies
// and the symbol world of finite-state transducers.
type SymbolCodec struct {
	// NumIn and NumOut are the alphabet sizes the codec produces and
	// consumes; they must match the FST space.
	NumIn, NumOut int

	// In classifies an inbox into an input symbol in [0, NumIn).
	In func(in comm.Inbox) int

	// Out renders an output symbol in [0, NumOut) as an outbox.
	Out func(sym int) comm.Outbox
}

// fstStrategy interprets a Mealy machine as a user strategy.
type fstStrategy struct {
	m     *fst.Machine
	codec SymbolCodec
	state int
}

var _ comm.StepperTo = (*fstStrategy)(nil)

func (s *fstStrategy) Reset(*xrand.Rand) { s.state = 0 }

func (s *fstStrategy) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }

func (s *fstStrategy) StepTo(in comm.Inbox, out *comm.Outbox) error {
	sym := s.codec.In(in)
	next, o, err := s.m.Step(s.state, sym)
	if err != nil {
		return fmt.Errorf("enumerate: fst strategy: %w", err)
	}
	s.state = next
	msg := s.codec.Out(o)
	out.ToUser, out.ToServer, out.ToWorld = msg.ToUser, msg.ToServer, msg.ToWorld
	return nil
}

// FST enumerates every finite-state-transducer strategy in the given space,
// interpreted through the codec. It returns an error if the space is
// invalid or the codec's alphabets do not match it.
func FST(space fst.Space, codec SymbolCodec) (Enumerator, error) {
	if !space.Valid() {
		return nil, fmt.Errorf("enumerate: invalid fst space %+v", space)
	}
	if codec.In == nil || codec.Out == nil {
		return nil, fmt.Errorf("enumerate: fst codec missing In/Out")
	}
	if codec.NumIn != space.NumIn || codec.NumOut != space.NumOut {
		return nil, fmt.Errorf("enumerate: codec alphabets (%d,%d) do not match space (%d,%d)",
			codec.NumIn, codec.NumOut, space.NumIn, space.NumOut)
	}
	size := space.Size()
	intSize := Unbounded
	if size < uint64(math.MaxInt) {
		intSize = int(size)
	}
	name := fmt.Sprintf("fst(%d,%d,%d)", space.NumStates, space.NumIn, space.NumOut)
	return FromFunc(name, intSize, func(i int) comm.Strategy {
		m, err := space.Machine(uint64(i))
		if err != nil {
			// Unreachable: the space was validated above. Fall back
			// to a silent machine rather than panicking mid-run.
			return &silent{}
		}
		return &fstStrategy{m: m, codec: codec}
	}), nil
}

// silent is the fallback strategy used if FST decoding ever fails.
type silent struct{}

var _ comm.StepperTo = (*silent)(nil)

func (*silent) Reset(*xrand.Rand)                         {}
func (s *silent) Step(in comm.Inbox) (comm.Outbox, error) { return comm.Step(s, in) }
func (*silent) StepTo(comm.Inbox, *comm.Outbox) error     { return nil }
