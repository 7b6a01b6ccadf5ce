package scenario

import (
	"strings"
	"testing"

	"repro/internal/xrand"
)

// fp fingerprints a spec under fixed sweep parameters — the composition
// tests only care about spec-content sensitivity.
func fp(s *Spec) string { return Fingerprint(s, "test/1", 2, 10, 1, 0, 0) }

// sameIDs fails the test unless both specs enumerate exactly the same
// scenario IDs (idSet lives in property_test.go).
func sameIDs(t *testing.T, a, b *Spec) {
	t.Helper()
	ia, ib := idSet(t, a), idSet(t, b)
	if len(ia) != len(ib) {
		t.Fatalf("ID set sizes differ: %d vs %d", len(ia), len(ib))
	}
	for id := range ia {
		if !ib[id] {
			t.Fatalf("ID %s missing from second enumeration", id)
		}
	}
}

// scramble returns a deep copy of a composed spec with blocks, axes and
// values reordered (and some values duplicated) — content-identical,
// syntactically different.
func scramble(s *Spec, r *xrand.Rand) *Spec {
	shuffle := func(n int, swap func(i, j int)) { // Fisher–Yates
		for i := n - 1; i > 0; i-- {
			swap(i, r.Intn(i+1))
		}
	}
	out := &Spec{Name: s.Name, Seeds: s.Seeds, BaseSeed: s.BaseSeed, Window: s.Window}
	out.Blocks = make([]Block, len(s.Blocks))
	for i, b := range s.Blocks {
		axes := make([]Axis, len(b.Axes))
		for j, ax := range b.Axes {
			vals := make([]string, len(ax.Values))
			copy(vals, ax.Values)
			// Duplicate one value sometimes; canonicalization dedups.
			if len(vals) > 0 && r.Intn(2) == 1 {
				vals = append(vals, vals[r.Intn(len(vals))])
			}
			shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
			axes[j] = Axis{Name: ax.Name, Values: vals}
		}
		shuffle(len(axes), func(a, b int) { axes[a], axes[b] = axes[b], axes[a] })
		out.Blocks[i] = Block{Axes: axes}
	}
	shuffle(len(out.Blocks), func(a, b int) { out.Blocks[a], out.Blocks[b] = out.Blocks[b], out.Blocks[a] })
	return out
}

// TestComposedFingerprintInvariance checks the core canonicalization
// property on the built-in composed specs: reordering blocks, axes
// within blocks, and values within axes — and duplicating values or
// whole blocks — changes neither the fingerprint nor the enumerated
// scenario IDs.
func TestComposedFingerprintInvariance(t *testing.T) {
	t.Parallel()

	for _, name := range []string{"adversarial", "family"} {
		spec, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		want := fp(spec)
		r := xrand.New(11)
		for round := 0; round < 5; round++ {
			perm := scramble(spec, r)
			if got := fp(perm); got != want {
				t.Fatalf("spec %q round %d: scrambled fingerprint %s != %s", name, round, got, want)
			}
		}
		// Duplicating an entire block is also identity: the canonical
		// form dedups it.
		dup, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		dup.Blocks = append(dup.Blocks, dup.Blocks[0])
		if got := fp(dup); got != want {
			t.Fatalf("spec %q: duplicated block changed fingerprint %s != %s", name, got, want)
		}
		if name == "adversarial" { // family is too large to enumerate twice here
			sameIDs(t, spec, scramble(spec, r))
		}
	}
}

// TestFlatVsComposedFingerprintEquality checks that a composition which
// collapses to a single block shares its fingerprint — and therefore its
// shard envelopes and cache keys — with the equivalent flat spec
// authored in canonical form (axes sorted by name, values sorted).
func TestFlatVsComposedFingerprintEquality(t *testing.T) {
	t.Parallel()

	flat := &Spec{
		Name: "pair",
		Axes: []Axis{
			{Name: "class", Values: []string{"4"}},
			{Name: "goal", Values: []string{"treasure"}},
			{Name: "server", Values: []string{"-1", "0"}},
		},
		Seeds: 2,
	}
	composed := &Spec{
		Name: "pair",
		Blocks: []Block{
			{Axes: []Axis{
				{Name: "server", Values: []string{"0", "-1"}},
				{Name: "goal", Values: []string{"treasure"}},
				{Name: "class", Values: []string{"4"}},
			}},
		},
		Seeds: 2,
	}
	// The same space split across two blocks differing on one axis also
	// merges back to the flat form.
	split := &Spec{
		Name: "pair",
		Blocks: []Block{
			{Axes: []Axis{
				{Name: "goal", Values: []string{"treasure"}},
				{Name: "class", Values: []string{"4"}},
				{Name: "server", Values: []string{"0"}},
			}},
			{Axes: []Axis{
				{Name: "server", Values: []string{"-1"}},
				{Name: "class", Values: []string{"4"}},
				{Name: "goal", Values: []string{"treasure"}},
			}},
		},
		Seeds: 2,
	}
	want := fp(flat)
	if got := fp(composed); got != want {
		t.Fatalf("single-block composed fingerprint %s != flat %s", got, want)
	}
	if got := fp(split); got != want {
		t.Fatalf("split composed fingerprint %s != flat %s", got, want)
	}
	sameIDs(t, flat, composed)
	sameIDs(t, flat, split)

	// And the collapse is visible in the matrix: the composed forms
	// enumerate as flat canonical specs.
	m, err := NewMatrix(split)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spec().Blocks) != 0 || len(m.Spec().Axes) != 3 {
		t.Fatalf("split spec did not collapse to flat: %+v", m.Spec())
	}
}

// TestRandomComposedCanonicalInvariance is the quick-check pass: random
// composed specs (fixed seed) fingerprint identically under any
// scrambling of their authored order.
func TestRandomComposedCanonicalInvariance(t *testing.T) {
	t.Parallel()

	names := []string{"goal", "class", "noise", "param", "server"}
	pools := map[string][]string{
		"goal":   {"treasure", "printing", "transfer", "control"},
		"class":  {"2", "4", "8"},
		"noise":  {"0", "0.1", "0.3"},
		"param":  {"0", "2", "5"},
		"server": {"0", "-1", "obstinate"},
	}
	r := xrand.New(99)
	for iter := 0; iter < 60; iter++ {
		spec := &Spec{Name: "rand", Seeds: 1}
		nblocks := 1 + r.Intn(3)
		for b := 0; b < nblocks; b++ {
			var axes []Axis
			for _, name := range names {
				if r.Float64() < 0.4 {
					continue
				}
				pool := pools[name]
				n := 1 + r.Intn(len(pool))
				perm := r.Perm(len(pool))[:n]
				vals := make([]string, n)
				for i, p := range perm {
					vals[i] = pool[p]
				}
				axes = append(axes, Axis{Name: name, Values: vals})
			}
			if len(axes) == 0 {
				axes = append(axes, Axis{Name: "goal", Values: []string{"treasure"}})
			}
			spec.Blocks = append(spec.Blocks, Block{Axes: axes})
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid spec: %v", iter, err)
		}
		want := fp(spec)
		for round := 0; round < 3; round++ {
			if got := fp(scramble(spec, r)); got != want {
				t.Fatalf("iter %d round %d: fingerprint drifted %s != %s", iter, round, got, want)
			}
		}
	}
}

// TestComposedMatrixDecoding pins the segment arithmetic: sizes add up,
// every index decodes to its own block's axes, and block boundaries land
// where the canonical block sizes say.
func TestComposedMatrixDecoding(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	canon := m.Spec()
	var want int64
	blockSizes := make([]int64, len(canon.Blocks))
	for i, b := range canon.Blocks {
		size := int64(1)
		for _, ax := range b.Axes {
			size *= int64(len(ax.Values))
		}
		blockSizes[i] = size
		want += size
	}
	if m.Size() != want {
		t.Fatalf("matrix size %d != block-size sum %d", m.Size(), want)
	}

	// Walk every scenario; its axis names must be exactly its block's.
	offset := int64(0)
	for bi, b := range canon.Blocks {
		names := make([]string, len(b.Axes))
		for i, ax := range b.Axes {
			names[i] = ax.Name
		}
		for _, idx := range []int64{offset, offset + blockSizes[bi] - 1} {
			sc := m.At(idx)
			if len(sc.Values) != len(names) {
				t.Fatalf("index %d: %d coordinates, block %d has %d axes", idx, len(sc.Values), bi, len(names))
			}
			for i, av := range sc.Values {
				if av.Name != names[i] {
					t.Fatalf("index %d coordinate %d: axis %q, want %q", idx, i, av.Name, names[i])
				}
			}
		}
		offset += blockSizes[bi]
	}

	// Index 0 of each block assigns every axis its first value.
	first := m.At(0)
	for i, av := range first.Values {
		if want := canon.Blocks[0].Axes[i].Values[0]; av.Value != want {
			t.Fatalf("index 0 coordinate %q = %q, want first value %q", av.Name, av.Value, want)
		}
	}
}

// TestComposedOverflow checks that block cross-products and the union
// sum are both guarded against int64 overflow.
func TestComposedOverflow(t *testing.T) {
	t.Parallel()

	wide := func(n int) []Axis {
		axes := make([]Axis, n)
		for i := range axes {
			axes[i] = Axis{Name: "a" + string(rune('A'+i/26)) + string(rune('a'+i%26)), Values: []string{"0", "1"}}
		}
		return axes
	}
	// One block of 64 binary axes: 2^64 scenarios overflows.
	over := &Spec{Name: "over", Blocks: []Block{{Axes: wide(64)}}}
	if _, err := NewMatrix(over); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("2^64 block accepted: %v", err)
	}
	// Two blocks of 2^62 each: each fits, the union does not.
	a := wide(62)
	b := wide(62)
	b[0].Name = "zz" // keep the blocks distinct so they cannot merge
	sum := &Spec{Name: "sum", Blocks: []Block{{Axes: a}, {Axes: b}}}
	if _, err := NewMatrix(sum); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("2^62+2^62 union accepted: %v", err)
	}
}

// TestComposedRestrict pins Restrict's per-block semantics on a real
// composed spec.
func TestComposedRestrict(t *testing.T) {
	t.Parallel()

	// Restricting to the treasure goal drops the other blocks.
	spec, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Restrict("goal", "treasure"); err != nil {
		t.Fatal(err)
	}
	if len(spec.Blocks) != 1 {
		t.Fatalf("treasure restriction kept %d blocks, want 1", len(spec.Blocks))
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Each(func(sc *Scenario) error {
		if g, _ := sc.Get("goal"); g != "treasure" {
			t.Fatalf("restricted enumeration leaked goal %q", g)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Restricting on an axis only some blocks carry drops the rest:
	// drift exists on the dialect and fsm blocks, not on treasure's.
	spec2, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	before := len(spec2.Blocks)
	if err := spec2.Restrict("drift", "0.25"); err != nil {
		t.Fatal(err)
	}
	if len(spec2.Blocks) != before-1 {
		t.Fatalf("drift restriction kept %d of %d blocks, want %d", len(spec2.Blocks), before, before-1)
	}

	// A value on no block's axis is an error, as is a missing axis and
	// an emptying restriction.
	spec3, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec3.Restrict("goal", "nosuch"); err == nil {
		t.Fatal("unknown goal value accepted")
	}
	spec4, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec4.Restrict("nosuchaxis", "1"); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

// TestAxesUnion pins the tabular view of a composed spec: axis names in
// first-appearance order, values unioned, Everywhere reflecting whether
// every block carries the axis.
func TestAxesUnion(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	views := spec.AxesUnion()
	byName := make(map[string]AxisView, len(views))
	for _, v := range views {
		byName[v.Name] = v
	}
	if v, ok := byName["goal"]; !ok || !v.Everywhere {
		t.Fatalf("goal view %+v: want present everywhere", v)
	}
	if len(byName["goal"].Values) != 5 {
		t.Fatalf("goal union %v: want 5 goals", byName["goal"].Values)
	}
	if v, ok := byName["drift"]; !ok || v.Everywhere {
		t.Fatalf("drift view %+v: want present but not everywhere (treasure block lacks it)", v)
	}
	if v, ok := byName["machine"]; !ok || v.Everywhere {
		t.Fatalf("machine view %+v: want fsm-only", v)
	}

	// Flat specs are the identity case.
	flat, err := BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	fviews := flat.AxesUnion()
	if len(fviews) != len(flat.Axes) {
		t.Fatalf("flat union has %d views for %d axes", len(fviews), len(flat.Axes))
	}
	for i, v := range fviews {
		if v.Name != flat.Axes[i].Name || !v.Everywhere {
			t.Fatalf("flat view %d = %+v, want axis %q everywhere", i, v, flat.Axes[i].Name)
		}
	}
}
