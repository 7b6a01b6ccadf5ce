package scenario

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// idSet expands a spec fully and returns every scenario ID.
func idSet(t *testing.T, spec *Spec) map[string]bool {
	t.Helper()
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool, m.Size())
	if err := m.Each(func(sc *Scenario) error {
		ids[sc.ID()] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// reversed returns a copy of vs in reverse order.
func reversed(vs []string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[len(vs)-1-i] = v
	}
	return out
}

// TestIDsStableAcrossEnumerationOrder checks that scenario IDs depend only
// on content: permuting the spec's axes and reversing every value list
// renumbers the scenarios but yields the identical ID set.
func TestIDsStableAcrossEnumerationOrder(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	ids := idSet(t, spec)

	perm, err := BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the axis order and every value list.
	for i, j := 0, len(perm.Axes)-1; i < j; i, j = i+1, j-1 {
		perm.Axes[i], perm.Axes[j] = perm.Axes[j], perm.Axes[i]
	}
	for i := range perm.Axes {
		perm.Axes[i].Values = reversed(perm.Axes[i].Values)
	}
	permIDs := idSet(t, perm)

	if len(ids) != len(permIDs) {
		t.Fatalf("ID set sizes differ: %d vs %d", len(ids), len(permIDs))
	}
	for id := range ids {
		if !permIDs[id] {
			t.Fatalf("ID %s missing from permuted enumeration", id)
		}
	}
}

// TestIDsCollisionFree checks that the full built-in matrices assign every
// scenario a distinct ID.
func TestIDsCollisionFree(t *testing.T) {
	t.Parallel()

	for _, name := range BuiltinSpecNames() {
		spec, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMatrix(spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]int64, m.Size())
		var i int64
		if err := m.Each(func(sc *Scenario) error {
			id := sc.ID()
			if prev, dup := seen[id]; dup {
				t.Fatalf("spec %q: scenarios %d and %d collide on ID %s",
					name, prev, i, id)
			}
			seen[id] = i
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if int64(len(seen)) != m.Size() {
			t.Fatalf("spec %q: %d IDs for %d scenarios", name, len(seen), m.Size())
		}
	}
}

// TestHashEncodingIsInjective checks that the content hash cannot be
// forged by embedding the separator characters in axis values: a single
// axis whose value spells out "x\nb=y" must not collide with the two-axis
// assignment {a: x, b: y}.
func TestHashEncodingIsInjective(t *testing.T) {
	t.Parallel()

	one := &Scenario{Values: []AxisValue{{Name: "a", Value: "x\n1:b=1:y"}}}
	two := &Scenario{Values: []AxisValue{{Name: "a", Value: "x"}, {Name: "b", Value: "y"}}}
	if one.Hash() == two.Hash() {
		t.Fatal("separator-injected value collides with a two-axis assignment")
	}
	eq := &Scenario{Values: []AxisValue{{Name: "a", Value: "x=b"}}}
	ne := &Scenario{Values: []AxisValue{{Name: "a=b", Value: "x"}}}
	if eq.Hash() == ne.Hash() {
		t.Fatal("'=' in a value collides with '=' in a name")
	}
}

// hashReference is the content hash as first written: one
// "len(name):name=len(value):value" string per coordinate, sorted, each
// folded with a trailing newline. Hash must agree with it bit for bit,
// since every scenario ID, trial seed, cache key and golden derives from
// the hash.
func hashReference(values []AxisValue) uint64 {
	keys := make([]string, len(values))
	for i, av := range values {
		keys[i] = fmt.Sprintf("%d:%s=%d:%s", len(av.Name), av.Name, len(av.Value), av.Value)
	}
	sort.Strings(keys)
	h := uint64(offset64)
	for _, k := range keys {
		h = fnv1aLine(h, k)
	}
	return h
}

// TestHashMatchesReference holds Hash to hashReference on
// TestHashEncodingIsInjective's separator cases, on the coordinates of
// every builtin family-sample scenario kind and on random scenarios:
// names and values built from separators and digits, of lengths on both
// sides of each extra decimal digit of the length prefix ("1:" sorts after
// "10:"), with repeated coordinates and more axes than Hash sorts on the
// stack. A hash of up to 16 axes allocates nothing.
func TestHashMatchesReference(t *testing.T) {
	t.Parallel()

	check := func(values []AxisValue) {
		t.Helper()
		sc := &Scenario{Values: values}
		if got, want := sc.Hash(), hashReference(values); got != want {
			t.Fatalf("Hash %016x, reference %016x, for %q", got, want, values)
		}
	}
	check(nil)
	check([]AxisValue{{Name: "a", Value: "x\n1:b=1:y"}})
	check([]AxisValue{{Name: "a", Value: "x"}, {Name: "b", Value: "y"}})
	check([]AxisValue{{Name: "a", Value: "x=b"}})
	check([]AxisValue{{Name: "a=b", Value: "x"}})

	r := xrand.New(5)
	alphabet := []byte("ab:=\n019")
	str := func() string {
		n := r.Intn(4)
		switch r.Intn(4) {
		case 0:
			n = 8 + r.Intn(4) // around the 9/10 boundary
		case 1:
			n = 98 + r.Intn(4) // around the 99/100 boundary
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	for k := 0; k < 2000; k++ {
		values := make([]AxisValue, r.Intn(24))
		for i := range values {
			if i > 0 && r.Intn(5) == 0 {
				values[i] = values[r.Intn(i)] // a repeated coordinate
				continue
			}
			values[i] = AxisValue{Name: str(), Value: str()}
		}
		check(values)
	}

	spec, err := BuiltinSpec("family")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range m.Sample(200, 1) {
		check(m.At(i).Values)
	}
	sc := m.At(0)
	if allocs := testing.AllocsPerRun(10, func() {
		sc.hashOK = false
		sc.Hash()
	}); allocs != 0 {
		t.Fatalf("hashing a %d-axis scenario allocates %.1f times", len(sc.Values), allocs)
	}
}

// TestSampleDeterministicPerSeed checks that Sample is a pure function of
// (n, seed): repeated draws agree, the indices are distinct, sorted and in
// range, and a different seed draws a different subset.
func TestSampleDeterministicPerSeed(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	a := m.Sample(n, 7)
	b := m.Sample(n, 7)
	if len(a) != n || len(b) != n {
		t.Fatalf("sample sizes %d, %d != %d", len(a), len(b), n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed samples differ at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= m.Size() {
			t.Fatalf("sample index %d out of range [0,%d)", a[i], m.Size())
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("sample not strictly ascending at %d: %d after %d", i, a[i], a[i-1])
		}
	}
	c := m.Sample(n, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 drew the identical sample")
	}

	// n >= Size returns the whole matrix.
	all := m.Sample(int(m.Size())+5, 1)
	if int64(len(all)) != m.Size() {
		t.Fatalf("oversized sample returned %d of %d", len(all), m.Size())
	}
	for i, idx := range all {
		if idx != int64(i) {
			t.Fatalf("oversized sample not the identity at %d: %d", i, idx)
		}
	}
}

// TestMatrixAtDecodesMixedRadix spot-checks the odometer: the first axis
// varies slowest and index 0 takes every first value.
func TestMatrixAtDecodesMixedRadix(t *testing.T) {
	t.Parallel()

	spec := &Spec{
		Name: "odometer",
		Axes: []Axis{
			{Name: "goal", Values: []string{"treasure"}},
			{Name: "a", Values: []string{"x", "y"}},
			{Name: "b", Values: Ints(1, 2, 3)},
		},
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 6 {
		t.Fatalf("size = %d, want 6", m.Size())
	}
	sc := m.At(0)
	if got := sc.Str("a", ""); got != "x" {
		t.Fatalf("At(0) a=%q, want x", got)
	}
	if got := sc.Str("b", ""); got != "1" {
		t.Fatalf("At(0) b=%q, want 1", got)
	}
	sc = m.At(4) // a index 1, b index 1
	if got := sc.Str("a", ""); got != "y" {
		t.Fatalf("At(4) a=%q, want y", got)
	}
	if got := sc.Str("b", ""); got != "2" {
		t.Fatalf("At(4) b=%q, want 2", got)
	}
}

func TestSpecValidateAndRestrict(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Restrict("goal", "transfer", "control"); err != nil {
		t.Fatal(err)
	}
	// Spec order is preserved, not the requested order.
	if got := spec.axis("goal").Values; len(got) != 2 || got[0] != "control" || got[1] != "transfer" {
		t.Fatalf("restricted goal axis = %v", got)
	}
	if err := spec.Restrict("goal", "nosuch"); err == nil {
		t.Fatal("restriction to a missing value accepted")
	}
	if err := spec.Restrict("nosuch", "x"); err == nil {
		t.Fatal("restriction of a missing axis accepted")
	}

	bad := &Spec{Name: "bad", Axes: []Axis{{Name: "a"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("axis without values validated")
	}
	dup := &Spec{Name: "dup", Axes: []Axis{
		{Name: "a", Values: Ints(1)},
		{Name: "a", Values: Ints(2)},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate axis names validated")
	}
}

func TestReadSpecRejectsUnknownFields(t *testing.T) {
	t.Parallel()

	const valid = `{"name":"x","seeds":3,"axes":[{"name":"goal","values":["treasure"]},{"name":"class","values":["4"]}]}`
	for name, in := range map[string]string{
		"unknown field":    `{"name":"x","axes":[{"name":"goal","values":["treasure"]}],"bogus":1}`,
		"two specs":        valid + "\n" + valid,
		"trailing garbage": valid + " trailing garbage",
	} {
		if _, err := ReadSpec(strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	spec, err := ReadSpec(strings.NewReader(valid + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.seeds() != 3 || spec.Name != "x" {
		t.Fatalf("decoded spec wrong: %+v", spec)
	}
}

func TestRegistryBindRejects(t *testing.T) {
	t.Parallel()

	reg := Builtin()
	mk := func(axes ...Axis) *Scenario {
		spec := &Spec{Name: "t", Axes: axes}
		m, err := NewMatrix(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m.At(0)
	}

	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"missing goal", mk(Axis{Name: "class", Values: Ints(4)})},
		{"unknown goal", mk(Axis{Name: "goal", Values: []string{"nosuch"}})},
		{"unknown axis", mk(
			Axis{Name: "goal", Values: []string{"treasure"}},
			Axis{Name: "bogus", Values: Ints(1)})},
		{"server out of class", mk(
			Axis{Name: "goal", Values: []string{"treasure"}},
			Axis{Name: "class", Values: Ints(4)},
			Axis{Name: "server", Values: Ints(9)})},
		{"oracle vs obstinate", mk(
			Axis{Name: "goal", Values: []string{"treasure"}},
			Axis{Name: "server", Values: []string{"obstinate"}},
			Axis{Name: "user", Values: []string{"oracle"}})},
		{"unknown user", mk(
			Axis{Name: "goal", Values: []string{"treasure"}},
			Axis{Name: "user", Values: []string{"psychic"}})},
		{"noise out of range", mk(
			Axis{Name: "goal", Values: []string{"treasure"}},
			Axis{Name: "noise", Values: Floats(1.5)})},
		{"treasure param", mk(
			Axis{Name: "goal", Values: []string{"treasure"}},
			Axis{Name: "param", Values: Ints(3)})},
		{"empty class", mk(
			Axis{Name: "goal", Values: []string{"printing"}},
			Axis{Name: "class", Values: Ints(0)})},
	}
	for _, tc := range cases {
		if _, err := reg.Bind(tc.sc); err == nil {
			t.Errorf("%s: Bind accepted", tc.name)
		}
	}

	// delay is no axis: a spec that sets it fails like a misspelt one.
	delay := mk(
		Axis{Name: "goal", Values: []string{"treasure"}},
		Axis{Name: "delay", Values: Ints(0)})
	if _, err := reg.Bind(delay); err == nil || !strings.Contains(err.Error(), `unknown axis "delay"`) {
		t.Errorf("delay axis: Bind error %v, want unknown axis", err)
	}

	// A negative server index counts from the end of the class.
	sc := mk(
		Axis{Name: "goal", Values: []string{"treasure"}},
		Axis{Name: "class", Values: Ints(4)},
		Axis{Name: "server", Values: Ints(-1)})
	if _, err := reg.Bind(sc); err != nil {
		t.Fatalf("server=-1: %v", err)
	}

	// env ranges over the goal's environment choices: treasure has one,
	// control eight.
	for _, tc := range []struct {
		goal string
		env  int
		ok   bool
	}{
		{"treasure", 0, true}, {"treasure", 1, false}, {"treasure", 8, false}, {"treasure", -3, false},
		{"control", 7, true}, {"control", 8, false}, {"control", -3, false},
	} {
		_, err := reg.Bind(mk(
			Axis{Name: "goal", Values: []string{tc.goal}},
			Axis{Name: "env", Values: Ints(tc.env)}))
		if (err == nil) != tc.ok || err != nil && !strings.Contains(err.Error(), "env") {
			t.Errorf("%s env %d: Bind error %v", tc.goal, tc.env, err)
		}
	}
}
