package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Axis is one named dimension of a scenario space. Values are canonical
// strings (see Ints and Floats for numeric axes); the value list order is
// the axis's enumeration order.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Spec declares a scenario space, in one of two shapes. A flat spec is
// the cross-product of its Axes; the first axis varies slowest in
// enumeration order, axis names must be unique and every axis needs at
// least one value. A composed spec instead declares Blocks — a union of
// per-family sub-matrices with independent (dependent-per-family) axis
// lists — and is canonicalized before enumeration and fingerprinting
// (see Canonical), so its identity is content-derived. Exactly one of
// Axes and Blocks must be set.
type Spec struct {
	// Name identifies the spec in reports and artifacts.
	Name string `json:"name"`

	// Axes are the dimensions of a flat spec, in enumeration order.
	Axes []Axis `json:"axes,omitempty"`

	// Blocks are the sub-matrices of a composed spec. The scenario space
	// is their union, enumerated block by block in canonical order.
	// Envelopes of composed sweeps carry this field, which readers from
	// before spec composition reject loudly (unknown JSON field) instead
	// of misreading.
	Blocks []Block `json:"blocks,omitempty"`

	// Seeds is the number of independent trials per scenario; 0 means 1.
	Seeds int `json:"seeds,omitempty"`

	// BaseSeed feeds per-trial seed derivation; 0 means 1.
	BaseSeed uint64 `json:"baseSeed,omitempty"`

	// Window is the convergence window compact-goal achievement is
	// judged on; 0 means 10.
	Window int `json:"window,omitempty"`
}

// Ints renders integer axis values in canonical form.
func Ints(vs ...int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return out
}

// IntRange renders the integers lo..hi inclusive in canonical form — the
// idiom for machine-index axes that cover a whole generated goal family.
func IntRange(lo, hi int) []string {
	if hi < lo {
		return nil
	}
	out := make([]string, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, strconv.Itoa(v))
	}
	return out
}

// Floats renders float axis values in canonical (shortest round-trip)
// form.
func Floats(vs ...float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

// seeds returns the effective trial count per scenario.
func (s *Spec) seeds() int {
	if s.Seeds <= 0 {
		return 1
	}
	return s.Seeds
}

// baseSeed returns the effective seed-derivation root.
func (s *Spec) baseSeed() uint64 {
	if s.BaseSeed == 0 {
		return 1
	}
	return s.BaseSeed
}

// window returns the effective convergence window.
func (s *Spec) window() int {
	if s.Window <= 0 {
		return 10
	}
	return s.Window
}

// axis returns the named axis, or nil.
func (s *Spec) axis(name string) *Axis {
	for i := range s.Axes {
		if s.Axes[i].Name == name {
			return &s.Axes[i]
		}
	}
	return nil
}

// Validate checks structural well-formedness: a name, exactly one of
// axes and blocks, and within each axis list unique axis names and no
// empty value lists.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Axes) > 0 && len(s.Blocks) > 0 {
		return fmt.Errorf("scenario: spec %q has both axes and blocks; declare one shape", s.Name)
	}
	if len(s.Blocks) > 0 {
		for i, b := range s.Blocks {
			where := fmt.Sprintf("%s block %d", s.Name, i)
			if len(b.Axes) == 0 {
				return fmt.Errorf("scenario: spec %q block %d has no axes", s.Name, i)
			}
			if err := validateAxes(where, b.Axes); err != nil {
				return err
			}
		}
		return nil
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("scenario: spec %q has no axes", s.Name)
	}
	return validateAxes(s.Name, s.Axes)
}

// validateAxes checks one axis list: unique non-empty names, non-empty
// value lists, non-empty values.
func validateAxes(where string, axes []Axis) error {
	seen := make(map[string]bool, len(axes))
	for _, ax := range axes {
		if ax.Name == "" {
			return fmt.Errorf("scenario: spec %q has an unnamed axis", where)
		}
		if seen[ax.Name] {
			return fmt.Errorf("scenario: spec %q repeats axis %q", where, ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("scenario: spec %q axis %q has no values", where, ax.Name)
		}
		for _, v := range ax.Values {
			if v == "" {
				return fmt.Errorf("scenario: spec %q axis %q has an empty value", where, ax.Name)
			}
		}
	}
	return nil
}

// Restrict narrows the named axis to the given values, preserving the
// spec's value order. It errors if the axis does not exist, a value is not
// on the axis, or the restriction would empty it. On a composed spec the
// restriction applies per block: blocks lacking the axis are dropped
// (their scenarios hold the axis at its default, which the restriction
// excludes), blocks whose intersection is empty are dropped, a value
// found on no block's axis is an error, and emptying the whole spec is
// an error.
func (s *Spec) Restrict(name string, values ...string) error {
	want := make(map[string]bool, len(values))
	for _, v := range values {
		want[v] = true
	}
	if len(s.Blocks) > 0 {
		return s.restrictBlocks(name, values, want)
	}
	ax := s.axis(name)
	if ax == nil {
		return fmt.Errorf("scenario: spec %q has no axis %q", s.Name, name)
	}
	kept := make([]string, 0, len(values))
	for _, v := range ax.Values {
		if want[v] {
			kept = append(kept, v)
			delete(want, v)
		}
	}
	for v := range want {
		return fmt.Errorf("scenario: axis %q has no value %q", name, v)
	}
	if len(kept) == 0 {
		return fmt.Errorf("scenario: restriction empties axis %q", name)
	}
	ax.Values = kept
	return nil
}

// restrictBlocks applies Restrict's per-block semantics. unmatched
// tracks requested values found on no block, which is an error just as a
// missing value is on a flat axis.
func (s *Spec) restrictBlocks(name string, values []string, unmatched map[string]bool) error {
	found := false
	kept := make([]Block, 0, len(s.Blocks))
	for _, b := range s.Blocks {
		var ax *Axis
		for i := range b.Axes {
			if b.Axes[i].Name == name {
				ax = &b.Axes[i]
				break
			}
		}
		if ax == nil {
			continue
		}
		found = true
		want := make(map[string]bool, len(values))
		for _, v := range values {
			want[v] = true
		}
		narrowed := make([]string, 0, len(values))
		for _, v := range ax.Values {
			if want[v] {
				narrowed = append(narrowed, v)
				delete(unmatched, v)
			}
		}
		if len(narrowed) == 0 {
			continue
		}
		// Rebuild the block so sibling specs sharing the backing arrays
		// (builtin specs are constructed fresh, but callers may copy)
		// never see the mutation.
		nb := Block{Axes: make([]Axis, len(b.Axes))}
		copy(nb.Axes, b.Axes)
		for i := range nb.Axes {
			if nb.Axes[i].Name == name {
				nb.Axes[i] = Axis{Name: name, Values: narrowed}
			}
		}
		kept = append(kept, nb)
	}
	if !found {
		return fmt.Errorf("scenario: spec %q has no axis %q", s.Name, name)
	}
	for v := range unmatched {
		return fmt.Errorf("scenario: axis %q has no value %q", name, v)
	}
	if len(kept) == 0 {
		return fmt.Errorf("scenario: restriction empties axis %q", name)
	}
	s.Blocks = kept
	return nil
}

// ReadSpec decodes a JSON spec and validates it. Unknown fields are
// rejected so typos in hand-written specs fail loudly.
func ReadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	if err := DecodeStrict(r, &s); err != nil {
		return nil, fmt.Errorf("scenario: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeStrict decodes the one JSON value r holds into v. Unknown fields
// are an error, and so is anything but whitespace after the value: a
// spec, envelope or plan file holds exactly one value, and a second one
// must not be dropped without notice.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the %d-byte JSON value", end)
	}
	return nil
}
