package server

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/xrand"
)

// chatty replies to every round with a fixed message and acts on the
// world each round — a server whose output stream makes encodings and
// suppressions observable.
type chatty struct{}

func (*chatty) Reset(*xrand.Rand) {}
func (*chatty) Step(comm.Inbox) (comm.Outbox, error) {
	return comm.Outbox{ToUser: "WELCOME", ToWorld: "acted"}, nil
}

// transcript steps s through the given user messages and returns the
// outbox sequence.
func transcript(t *testing.T, s comm.Strategy, seed uint64, msgs []comm.Message) []comm.Outbox {
	t.Helper()
	s.Reset(xrand.New(seed))
	out := make([]comm.Outbox, len(msgs))
	for i, m := range msgs {
		var err error
		out[i], err = s.Step(comm.Inbox{FromUser: m})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func repeat(m comm.Message, n int) []comm.Message {
	msgs := make([]comm.Message, n)
	for i := range msgs {
		msgs[i] = m
	}
	return msgs
}

func TestMisleadingZeroIsByteParity(t *testing.T) {
	t.Parallel()

	msgs := append(repeat("HELLO", 5), repeat("", 5)...)
	got := transcript(t, Misleading(&commtest.GreetServer{}, 0), 3, msgs)
	want := transcript(t, &commtest.GreetServer{}, 3, msgs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round %d: p=0 wrapper diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestMisleadingOneSuppressesAllActions(t *testing.T) {
	t.Parallel()

	s := Misleading(&commtest.GreetServer{}, 1)
	outs := transcript(t, s, 1, repeat("HELLO", 20))
	for i, out := range outs {
		if !out.ToWorld.Empty() {
			t.Fatalf("round %d: p=1 let an action through: %+v", i, out)
		}
		// The inner server acted every round, so from round 0 on the
		// wrapper claims that progress on the user channel.
		if out.ToUser != "WELCOME" {
			t.Fatalf("round %d: want stale WELCOME claim, got %+v", i, out)
		}
	}
}

func TestMisleadingSilentBeforeFirstAction(t *testing.T) {
	t.Parallel()

	// The inner server never acts on silence, so there is no past
	// progress to claim: the lie must be silence, not fabrication.
	s := Misleading(&commtest.GreetServer{}, 1)
	for i, out := range transcript(t, s, 1, repeat("", 10)) {
		if out != (comm.Outbox{}) {
			t.Fatalf("round %d: fabricated a claim with no progress to replay: %+v", i, out)
		}
	}
}

func TestByzantineZeroBudgetParity(t *testing.T) {
	t.Parallel()

	msgs := repeat("x", 20)
	got := transcript(t, Byzantine(&commtest.Echo{}, 0), 5, msgs)
	want := transcript(t, &commtest.Echo{}, 5, msgs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round %d: budget-0 wrapper diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestByzantineSpendsBudgetThenHonest(t *testing.T) {
	t.Parallel()

	const budget = 3
	outs := transcript(t, Byzantine(&commtest.Echo{}, budget), 9, repeat("x", 200))
	corrupted := 0
	last := -1
	for i, out := range outs {
		if out.ToUser != "x" {
			if !strings.HasPrefix(string(out.ToUser), "bz") {
				t.Fatalf("round %d: corruption is not junk-pool garbage: %q", i, out.ToUser)
			}
			corrupted++
			last = i
		}
	}
	if corrupted != budget {
		t.Fatalf("corrupted %d rounds, want exactly the budget %d", corrupted, budget)
	}
	// Eventually honest: every round after the budget is spent echoes.
	for i := last + 1; i < len(outs); i++ {
		if outs[i].ToUser != "x" {
			t.Fatalf("round %d corrupted after budget spent", i)
		}
	}
}

func TestByzantineDeterministicPerSeed(t *testing.T) {
	t.Parallel()

	msgs := repeat("x", 100)
	a := transcript(t, Byzantine(&commtest.Echo{}, 8), 42, msgs)
	b := transcript(t, Byzantine(&commtest.Echo{}, 8), 42, msgs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: same seed, different transcript", i)
		}
	}
}

func TestDriftingZeroMatchesDialected(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 4)
	msgs := repeat(fam.Dialect(2).Encode("HELLO"), 10)
	got := transcript(t, DriftingDialected(&commtest.GreetServer{}, fam, 2, 0), 7, msgs)
	want := transcript(t, Dialected(&commtest.GreetServer{}, fam.Dialect(2)), 7, msgs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round %d: p=0 drift diverged from fixed dialect: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestDriftingSwitchesDialects(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 4)
	outs := transcript(t, DriftingDialected(&chatty{}, fam, 0, 1), 11, repeat("", 60))
	seen := map[comm.Message]bool{}
	for i, out := range outs {
		seen[out.ToUser] = true
		// Every reply must be WELCOME under some dialect of the family.
		valid := false
		for d := 0; d < fam.Size(); d++ {
			if out.ToUser == fam.Dialect(d).Encode("WELCOME") {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("round %d: reply %q is not any dialect's WELCOME", i, out.ToUser)
		}
		if out.ToWorld != "acted" {
			t.Fatalf("round %d: world channel transformed: %q", i, out.ToWorld)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("p=1 drift never switched dialect: replies %v", seen)
	}
}

func TestDriftingStartIndexWraps(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 4)
	msgs := repeat(fam.Dialect(1).Encode("HELLO"), 4)
	got := transcript(t, DriftingDialected(&commtest.GreetServer{}, fam, -3, 0), 1, msgs)
	want := transcript(t, Dialected(&commtest.GreetServer{}, fam.Dialect(1)), 1, msgs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round %d: start -3 should wrap to 1: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestAdversaryNilRandSafe(t *testing.T) {
	t.Parallel()

	s := Misleading(Byzantine(&chatty{}, 1), 0.5)
	s.Reset(nil)
	if _, err := s.Step(comm.Inbox{FromUser: "hi"}); err != nil {
		t.Fatal(err)
	}

	fam := wordFam(t, 3)
	d := DriftingDialected(&chatty{}, fam, 0, 0.5)
	d.Reset(nil)
	if _, err := d.Step(comm.Inbox{FromUser: "hi"}); err != nil {
		t.Fatal(err)
	}
}
