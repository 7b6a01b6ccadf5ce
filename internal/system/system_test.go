package system

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
)

func TestRunRejectsNilParties(t *testing.T) {
	t.Parallel()

	w := &commtest.CountingWorld{}
	s := &commtest.Silent{}
	if _, err := Run(nil, s, w, Config{}); err == nil {
		t.Error("nil user accepted")
	}
	if _, err := Run(s, nil, w, Config{}); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := Run(s, s, nil, Config{}); err == nil {
		t.Error("nil world accepted")
	}
}

func TestRunHorizon(t *testing.T) {
	t.Parallel()

	res, err := Run(&commtest.Silent{}, &commtest.Silent{}, &commtest.CountingWorld{},
		Config{MaxRounds: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 17 {
		t.Fatalf("Rounds = %d, want 17", res.Rounds)
	}
	if res.Halted {
		t.Fatal("silent user reported halted")
	}
	if res.History.Len() != 17 || res.View.Dropped+len(res.View.Rounds) != 17 {
		t.Fatalf("history/view lengths: %d/%d", res.History.Len(), res.View.Dropped+len(res.View.Rounds))
	}
}

func TestRunDefaultHorizon(t *testing.T) {
	t.Parallel()

	res, err := Run(&commtest.Silent{}, &commtest.Silent{}, &commtest.CountingWorld{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != DefaultMaxRounds {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, DefaultMaxRounds)
	}
}

func TestRunHaltStopsEarly(t *testing.T) {
	t.Parallel()

	u := &commtest.Script{HaltAfter: 3}
	res, err := Run(u, &commtest.Silent{}, &commtest.CountingWorld{}, Config{MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("not halted")
	}
	if res.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", res.Rounds)
	}
}

func TestMessageDeliveryNextRound(t *testing.T) {
	t.Parallel()

	// User sends "hello" to world in round 0; the world must see it in
	// round 1, so the round-1 snapshot (index 1) records it.
	u := &commtest.Script{Outs: []comm.Outbox{{ToWorld: "hello"}}}
	res, err := Run(u, &commtest.Silent{}, &commtest.CountingWorld{}, Config{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := commtest.ParseCounting(res.History.States[0]); got != "" {
		t.Fatalf("round 0 snapshot already has user msg %q", got)
	}
	if got := commtest.ParseCounting(res.History.States[1]); got != "hello" {
		t.Fatalf("round 1 snapshot user msg = %q, want hello", got)
	}
}

func TestUserServerRoundTrip(t *testing.T) {
	t.Parallel()

	// User sends "ping" to the echo server in round 0; the server sees
	// it in round 1 and echoes; the user receives the echo in round 2.
	u := &commtest.Script{Outs: []comm.Outbox{{ToServer: "ping"}}}
	res, err := Run(u, &commtest.Echo{Prefix: "re:"}, &commtest.CountingWorld{},
		Config{MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.View.Rounds[2].In.FromServer; got != "re:ping" {
		t.Fatalf("round 2 user inbox from server = %q, want re:ping", got)
	}
	for r := 0; r < 2; r++ {
		if got := res.View.Rounds[r].In.FromServer; !got.Empty() {
			t.Fatalf("round %d already has server msg %q", r, got)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	t.Parallel()

	run := func() *Result {
		u := &commtest.Script{Outs: []comm.Outbox{{ToServer: "a"}, {ToWorld: "b"}}}
		res, err := Run(u, &commtest.Echo{}, &commtest.CountingWorld{},
			Config{MaxRounds: 20, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for i := range a.History.States {
		if a.History.States[i] != b.History.States[i] {
			t.Fatalf("history diverged at %d", i)
		}
	}
}

func TestRunUserErrorPropagates(t *testing.T) {
	t.Parallel()

	sentinel := errors.New("boom")
	_, err := Run(&commtest.ErrStrategy{Err: sentinel}, &commtest.Silent{},
		&commtest.CountingWorld{}, Config{MaxRounds: 5})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "user") {
		t.Fatalf("error lacks party context: %v", err)
	}
	// A run that fails mid-way reports the rounds it completed.
	_, err = Run(&failingUser{FailAt: 3}, &commtest.Silent{}, &commtest.CountingWorld{}, Config{MaxRounds: 5})
	var re *RoundError
	if !errors.As(err, &re) || re.Rounds != 3 || re.Error() != re.Err.Error() {
		t.Fatalf("err = %#v, want a RoundError after 3 rounds with its cause's text", err)
	}
}

func TestRunServerErrorPropagates(t *testing.T) {
	t.Parallel()

	sentinel := errors.New("server down")
	_, err := Run(&commtest.Silent{}, &commtest.ErrStrategy{Err: sentinel},
		&commtest.CountingWorld{}, Config{MaxRounds: 5})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestOnRoundCallback(t *testing.T) {
	t.Parallel()

	var rounds []int
	var states []comm.WorldState
	cfg := Config{
		MaxRounds: 5,
		OnRound: func(round int, rv comm.RoundView, state comm.WorldState) {
			rounds = append(rounds, round)
			states = append(states, state)
		},
	}
	res, err := Run(&commtest.Silent{}, &commtest.Silent{}, &commtest.CountingWorld{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 5 {
		t.Fatalf("callback fired %d times, want 5", len(rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("round sequence wrong: %v", rounds)
		}
		if states[i] != res.History.States[i] {
			t.Fatalf("callback state %d disagrees with history", i)
		}
	}
}

func TestViewMatchesScript(t *testing.T) {
	t.Parallel()

	outs := []comm.Outbox{{ToServer: "x"}, {ToWorld: "y"}, {ToUser: ""}}
	u := &commtest.Script{Outs: outs}
	res, err := Run(u, &commtest.Silent{}, &commtest.CountingWorld{}, Config{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range outs {
		if got := res.View.Rounds[i].Out; got != want {
			t.Fatalf("round %d out = %+v, want %+v", i, got, want)
		}
	}
}
