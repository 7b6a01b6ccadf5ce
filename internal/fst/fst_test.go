package fst

import (
	"testing"
	"testing/quick"
)

func TestSpaceSizeSmall(t *testing.T) {
	t.Parallel()

	tests := []struct {
		space Space
		want  uint64
	}{
		{Space{1, 1, 1}, 1},
		{Space{1, 2, 1}, 1},   // (1*1)^(1*2)
		{Space{2, 1, 2}, 16},  // (2*2)^(2*1)
		{Space{2, 2, 2}, 256}, // 4^4
		{Space{1, 1, 4}, 4},   // 4^1
		{Space{0, 1, 1}, 0},
	}
	for _, tt := range tests {
		if got := tt.space.Size(); got != tt.want {
			t.Errorf("Size(%+v) = %d, want %d", tt.space, got, tt.want)
		}
	}
}

func TestSpaceSizeSaturates(t *testing.T) {
	t.Parallel()

	s := Space{NumStates: 8, NumIn: 8, NumOut: 8}
	if got := s.Size(); got != ^uint64(0) {
		t.Fatalf("expected saturation, got %d", got)
	}
}

func TestMachineDecodeTotal(t *testing.T) {
	t.Parallel()

	s := Space{NumStates: 2, NumIn: 2, NumOut: 2}
	size := s.Size()
	seen := make(map[string]bool, size)
	for i := uint64(0); i < size; i++ {
		m, err := s.Machine(i)
		if err != nil {
			t.Fatalf("Machine(%d): %v", i, err)
		}
		key := ""
		for j := range m.Next {
			key += string(rune('0'+m.Next[j])) + string(rune('0'+m.Out[j]))
		}
		if seen[key] {
			t.Fatalf("Machine(%d) duplicates an earlier machine", i)
		}
		seen[key] = true
	}
	if len(seen) != int(size) {
		t.Fatalf("enumeration not total: %d distinct of %d", len(seen), size)
	}
}

func TestIndexInvertsMachine(t *testing.T) {
	t.Parallel()

	s := Space{NumStates: 3, NumIn: 2, NumOut: 2}
	f := func(raw uint32) bool {
		idx := uint64(raw) % s.Size()
		m, err := s.Machine(idx)
		if err != nil {
			return false
		}
		back, err := s.Index(m)
		return err == nil && back == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexRejectsWrongDims(t *testing.T) {
	t.Parallel()

	s := Space{NumStates: 2, NumIn: 2, NumOut: 2}
	m, err := Space{NumStates: 3, NumIn: 2, NumOut: 2}.Machine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Index(m); err == nil {
		t.Fatal("mismatched dimensions accepted")
	}
}

func TestStepBounds(t *testing.T) {
	t.Parallel()

	m, err := Space{NumStates: 2, NumIn: 2, NumOut: 2}.Machine(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Step(-1, 0); err == nil {
		t.Error("negative state accepted")
	}
	if _, _, err := m.Step(2, 0); err == nil {
		t.Error("state out of range accepted")
	}
	if _, _, err := m.Step(0, 2); err == nil {
		t.Error("input out of range accepted")
	}
	if _, _, err := m.Step(0, 0); err != nil {
		t.Errorf("valid step rejected: %v", err)
	}
}

// run feeds the input sequence through m from the initial state, one Step
// at a time, and returns the output sequence.
func run(m *Machine, inputs []int) ([]int, error) {
	outs := make([]int, 0, len(inputs))
	state := 0
	for _, in := range inputs {
		next, out, err := m.Step(state, in)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		state = next
	}
	return outs, nil
}

func TestRunDeterministicAndInRange(t *testing.T) {
	t.Parallel()

	s := Space{NumStates: 3, NumIn: 2, NumOut: 4}
	f := func(raw uint32, inputsRaw []byte) bool {
		idx := uint64(raw)
		m, err := s.Machine(idx)
		if err != nil {
			return false
		}
		inputs := make([]int, len(inputsRaw))
		for i, b := range inputsRaw {
			inputs[i] = int(b) % s.NumIn
		}
		out1, err1 := run(m, inputs)
		out2, err2 := run(m, inputs)
		if err1 != nil || err2 != nil || len(out1) != len(inputs) {
			return false
		}
		for i := range out1 {
			if out1[i] != out2[i] {
				return false
			}
			if out1[i] < 0 || out1[i] >= s.NumOut {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	t.Parallel()

	m, err := Space{NumStates: 1, NumIn: 1, NumOut: 1}.Machine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(m, []int{0, 5}); err == nil {
		t.Fatal("out-of-alphabet input accepted")
	}
}

func TestSpecificMachineBehaviour(t *testing.T) {
	t.Parallel()

	// Build a parity machine by hand: 2 states, input {0,1}, output =
	// current parity of ones seen.
	m := &Machine{
		NumStates: 2, NumIn: 2, NumOut: 2,
		// state 0 (even): on 0 stay/emit 0; on 1 go 1/emit 1.
		// state 1 (odd):  on 0 stay/emit 1; on 1 go 0/emit 0.
		Next: []int{0, 1, 1, 0},
		Out:  []int{0, 1, 1, 0},
	}
	out, err := run(m, []int{1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 0, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("parity outputs = %v, want %v", out, want)
		}
	}

	// Round-trip through the space encoding.
	s := Space{NumStates: 2, NumIn: 2, NumOut: 2}
	idx, err := s.Index(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Machine(idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Next {
		if back.Next[i] != m.Next[i] || back.Out[i] != m.Out[i] {
			t.Fatal("round-trip changed the machine")
		}
	}
}
