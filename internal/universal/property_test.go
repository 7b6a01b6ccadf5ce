package universal

import (
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/enumerate"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// scriptedSense plays back a fixed indication sequence (then stays
// positive), letting properties control the universal user's switching.
type scriptedSense struct {
	verdicts []bool
	pos      int
}

var _ sensing.Sense = (*scriptedSense)(nil)

func (s *scriptedSense) Reset() {
	// Do not rewind: the script is global across candidate switches so
	// that the test controls the exact number of negatives observed.
}

func (s *scriptedSense) Observe(*comm.RoundView) bool {
	if s.pos < len(s.verdicts) {
		v := s.verdicts[s.pos]
		s.pos++
		return v
	}
	return true
}

func TestCompactUserSwitchesExactlyOnNegatives(t *testing.T) {
	t.Parallel()

	// Property: after playing any verdict script, the user's index (and
	// switch count) equals the number of negative indications.
	f := func(raw []bool) bool {
		script := raw
		if len(script) > 200 {
			script = script[:200]
		}
		enum := enumerate.FromFunc("silent", enumerate.Unbounded, func(int) comm.Strategy {
			return &commtest.Silent{}
		})
		sense := &scriptedSense{verdicts: script}
		u, err := NewCompactUser(enum, sense)
		if err != nil {
			return false
		}
		u.Reset(xrand.New(1))
		negatives := 0
		for _, v := range script {
			if _, err := u.Step(comm.Inbox{}); err != nil {
				return false
			}
			if !v {
				negatives++
			}
		}
		return u.Index() == negatives && u.Switches() == negatives
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactUserIndexMonotone(t *testing.T) {
	t.Parallel()

	// Property: the index never decreases over any run.
	f := func(raw []bool) bool {
		enum := enumerate.FromFunc("silent", enumerate.Unbounded, func(int) comm.Strategy {
			return &commtest.Silent{}
		})
		u, err := NewCompactUser(enum, &scriptedSense{verdicts: raw})
		if err != nil {
			return false
		}
		u.Reset(xrand.New(1))
		prev := u.Index()
		for range raw {
			if _, err := u.Step(comm.Inbox{}); err != nil {
				return false
			}
			if u.Index() < prev {
				return false
			}
			prev = u.Index()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactUserResetRestartsSearch(t *testing.T) {
	t.Parallel()

	enum := enumerate.FromFunc("silent", enumerate.Unbounded, func(int) comm.Strategy {
		return &commtest.Silent{}
	})
	u, err := NewCompactUser(enum, sensing.Const(false))
	if err != nil {
		t.Fatal(err)
	}
	u.Reset(xrand.New(1))
	for i := 0; i < 7; i++ {
		if _, err := u.Step(comm.Inbox{}); err != nil {
			t.Fatal(err)
		}
	}
	if u.Index() != 7 {
		t.Fatalf("index = %d, want 7", u.Index())
	}
	u.Reset(xrand.New(1))
	if u.Index() != 0 || u.Switches() != 0 {
		t.Fatalf("Reset did not restart: index=%d switches=%d", u.Index(), u.Switches())
	}
}
