package treasure

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func TestWorldUnlocks(t *testing.T) {
	t.Parallel()

	w := &World{}
	w.Reset(xrand.New(1))
	out, err := w.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "LOCKED" || w.Snapshot() != "vault=locked" {
		t.Fatalf("initial state wrong: %q %q", out.ToUser, w.Snapshot())
	}
	out, err = w.Step(comm.Inbox{FromServer: "UNLOCK"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "OPEN" || w.Snapshot() != "vault=open" {
		t.Fatalf("unlock failed: %q %q", out.ToUser, w.Snapshot())
	}
	// The vault stays open.
	if _, err := w.Step(comm.Inbox{}); err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "vault=open" {
		t.Fatal("vault re-locked")
	}
}

func TestServerSecretHandling(t *testing.T) {
	t.Parallel()

	s := &Server{Secret: 5}
	s.Reset(xrand.New(1))

	tests := []struct {
		msg     comm.Message
		toUser  comm.Message
		toWorld comm.Message
	}{
		{"pass 5", "GRANTED", "UNLOCK"},
		{"pass 4", "DENIED", ""},
		{"pass x", "DENIED", ""},
		{"open sesame", "", ""},
		{"", "", ""},
	}
	for _, tt := range tests {
		out, err := s.Step(comm.Inbox{FromUser: tt.msg})
		if err != nil {
			t.Fatal(err)
		}
		if out.ToUser != tt.toUser || out.ToWorld != tt.toWorld {
			t.Errorf("Step(%q) = %+v", tt.msg, out)
		}
	}
}

func TestWrongGuessesIndistinguishable(t *testing.T) {
	t.Parallel()

	// The lower bound requires that wrong guesses leak nothing: two
	// servers with different secrets respond identically to any guess
	// that matches neither secret.
	a, b := &Server{Secret: 3}, &Server{Secret: 9}
	a.Reset(xrand.New(1))
	b.Reset(xrand.New(1))
	for guess := 0; guess < 12; guess++ {
		if guess == 3 || guess == 9 {
			continue
		}
		msg := comm.Message(fmt.Sprintf("pass %d", guess))
		outA, errA := a.Step(comm.Inbox{FromUser: msg})
		outB, errB := b.Step(comm.Inbox{FromUser: msg})
		if errA != nil || errB != nil || outA != outB {
			t.Fatalf("guess %d distinguishes servers: %+v vs %+v", guess, outA, outB)
		}
	}
}

func TestUniversalOpensEveryVault(t *testing.T) {
	t.Parallel()

	const n = 10
	g := &Goal{}
	for i := 0; i < n; i++ {
		u, err := universal.NewCompactUser(Enum(n), Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := system.Run(u, &Server{Secret: i}, g.NewWorld(goal.Env{}), system.Config{
			MaxRounds: 30 * n, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !goal.CompactAchieved(g, res.History, 10) {
			t.Fatalf("vault %d not opened", i)
		}
	}
}

func TestOverheadLinearInSecret(t *testing.T) {
	t.Parallel()

	// Rounds to convergence must grow roughly linearly with the secret's
	// position in the enumeration — the Ω(N) worst case.
	const n = 32
	g := &Goal{}
	rounds := func(secret int) int {
		u, err := universal.NewCompactUser(Enum(n), Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := system.Run(u, &Server{Secret: secret}, g.NewWorld(goal.Env{}),
			system.Config{MaxRounds: 40 * n, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !goal.CompactAchieved(g, res.History, 5) {
			t.Fatalf("secret %d not found", secret)
		}
		return goal.LastUnacceptable(g, res.History)
	}
	r4, r16, r31 := rounds(4), rounds(16), rounds(31)
	if !(r4 < r16 && r16 < r31) {
		t.Fatalf("overhead not increasing: %d, %d, %d", r4, r16, r31)
	}
	// Roughly linear: doubling the index should land within [1.2x, 4x].
	if ratio := float64(r31) / float64(r16); ratio < 1.2 || ratio > 4 {
		t.Fatalf("overhead ratio %v not plausibly linear (r16=%d, r31=%d)", ratio, r16, r31)
	}
}

func TestShuffledOrderStillUniversal(t *testing.T) {
	t.Parallel()

	// Any enumeration order works; only the overhead profile changes.
	const n = 16
	shuffled, err := enumerate.Shuffled(Enum(n), 77)
	if err != nil {
		t.Fatal(err)
	}
	g := &Goal{}
	for _, secret := range []int{0, 7, 15} {
		u, err := universal.NewCompactUser(shuffled, Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := system.Run(u, &Server{Secret: secret}, g.NewWorld(goal.Env{}),
			system.Config{MaxRounds: 40 * n, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !goal.CompactAchieved(g, res.History, 5) {
			t.Fatalf("shuffled user failed on secret %d", secret)
		}
	}
}

func TestGoalRefereeOnHistories(t *testing.T) {
	t.Parallel()

	g := &Goal{}
	h := comm.History{States: []comm.WorldState{"vault=locked", "vault=open"}}
	if g.Acceptable(h.Prefix(1)) {
		t.Fatal("locked prefix acceptable")
	}
	if !g.Acceptable(h) {
		t.Fatal("open prefix unacceptable")
	}
}
