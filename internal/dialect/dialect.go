// Package dialect models the "language mismatch" at the heart of the paper:
// components built at different times, by different groups, speaking
// different encodings of the same underlying protocol.
//
// A Dialect is an invertible message transformation. Servers are wrapped so
// that they only understand commands encoded in their own dialect
// (internal/server.Dialected); the class of possible servers the paper's
// user must cope with is then a Family of dialects, and a universal user
// must achieve its goal without knowing which family member it is paired
// with.
//
// Every dialect satisfies Decode(Encode(m)) == m for all messages m over its
// domain; families are generated deterministically so that experiments are
// reproducible. A word-family dialect swaps each vocabulary word with its
// codeword, an involution, so Encode and Decode share one table.
package dialect

import (
	"fmt"
	"strings"

	"repro/internal/comm"
)

// Dialect is an invertible encoding of messages.
//
// Implementations must be pure functions of the message: Encode and
// Decode may not depend on call order, randomness or external state.
// Callers rely on this — server.Dialected memoizes translations and
// candidate strategies cache encoded commands, so an impure dialect
// would be served stale translations. Model randomness (noise, drops)
// with a server transform (server.Noisy), not inside a dialect.
//
// Encode and Decode must also map the empty message (silence) to
// itself: a party that says nothing says nothing in every dialect.
// server.Dialected relies on this and never translates silence.
type Dialect interface {
	// ID is the dialect's index within its family.
	ID() int

	// Name identifies the dialect for logs and tables.
	Name() string

	// Encode maps a plain message to its wire form.
	Encode(m comm.Message) comm.Message

	// Decode maps a wire-form message back to plain form. For messages
	// produced by Encode it is an exact inverse; on other inputs it
	// applies the inverse transformation mechanically (garbage in,
	// garbage out), which is precisely how a mismatched server
	// misunderstands a foreign protocol.
	Decode(m comm.Message) comm.Message
}

// Family is a finite, indexable set of dialects — the server class of an
// experiment.
type Family struct {
	name     string
	dialects []Dialect
}

// NewFamily assembles a family from explicit dialects. It returns an error
// if the family is empty.
func NewFamily(name string, ds []Dialect) (*Family, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("dialect: family %q has no dialects", name)
	}
	copied := make([]Dialect, len(ds))
	copy(copied, ds)
	return &Family{name: name, dialects: copied}, nil
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Size returns the number of dialects in the family.
func (f *Family) Size() int { return len(f.dialects) }

// Dialect returns the i-th dialect; indices wrap modulo Size so enumerators
// can probe freely.
func (f *Family) Dialect(i int) Dialect {
	n := len(f.dialects)
	i %= n
	if i < 0 {
		i += n
	}
	return f.dialects[i]
}

// identity is dialect 0 of most families: the designers who agree on the
// standard.
type identity struct{ id int }

var _ Dialect = identity{}

func (d identity) ID() int                            { return d.id }
func (d identity) Name() string                       { return fmt.Sprintf("identity#%d", d.id) }
func (d identity) Encode(m comm.Message) comm.Message { return m }
func (d identity) Decode(m comm.Message) comm.Message { return m }

// Identity returns the trivial dialect with the given ID.
func Identity(id int) Dialect { return identity{id: id} }

// wordMap substitutes whole space-separated tokens according to a
// vocabulary table that swaps word and codeword pairs; tokens outside the
// vocabulary pass through unchanged (they are payload, e.g. document
// contents). A swap is its own inverse, so one table serves Encode and
// Decode.
type wordMap struct {
	id   int
	swap map[string]string
}

var _ Dialect = (*wordMap)(nil)

func (d *wordMap) ID() int      { return d.id }
func (d *wordMap) Name() string { return fmt.Sprintf("words#%d", d.id) }

// mapTokens replaces every space-separated token of m that table maps,
// empty tokens included. It returns m itself when no token changes, and
// otherwise writes the translation into one strings.Builder, copying the
// unchanged runs between replaced tokens whole.
func mapTokens(m comm.Message, table map[string]string) comm.Message {
	if m.Empty() {
		return m
	}
	s := string(m)
	var b strings.Builder
	changed := false
	done := 0 // s[:done] has been written to b
	for start := 0; start <= len(s); {
		end := strings.IndexByte(s[start:], ' ')
		if end < 0 {
			end = len(s)
		} else {
			end += start
		}
		if repl, ok := table[s[start:end]]; ok && repl != s[start:end] {
			if !changed {
				b.Grow(len(s) + len(repl))
				changed = true
			}
			b.WriteString(s[done:start])
			b.WriteString(repl)
			done = end
		}
		start = end + 1
	}
	if !changed {
		return m
	}
	b.WriteString(s[done:])
	return comm.Message(b.String())
}

func (d *wordMap) Encode(m comm.Message) comm.Message { return mapTokens(m, d.swap) }
func (d *wordMap) Decode(m comm.Message) comm.Message { return mapTokens(m, d.swap) }

// NewWordFamily builds n dialects over the given vocabulary. Dialect 0 maps
// every word to itself; dialect i > 0 swaps vocabulary words with synthetic
// codewords ("w<i>_<j>"), an involution, so that plain commands are
// gibberish to a mismatched server and no two dialects are mutually
// intelligible. It returns an error for an empty vocabulary or n < 1.
func NewWordFamily(vocab []string, n int) (*Family, error) {
	if n < 1 {
		return nil, fmt.Errorf("dialect: word family size %d < 1", n)
	}
	if len(vocab) == 0 {
		return nil, fmt.Errorf("dialect: word family needs a vocabulary")
	}
	ds := make([]Dialect, n)
	for i := range ds {
		d := &wordMap{id: i, swap: make(map[string]string, 2*len(vocab))}
		for j, w := range vocab {
			code := w
			if i > 0 {
				code = fmt.Sprintf("w%d_%d", i, j)
			}
			// Map word and codeword to each other so the table is a
			// bijection on vocab ∪ codewords.
			d.swap[w] = code
			d.swap[code] = w
		}
		ds[i] = d
	}
	return NewFamily("words", ds)
}
