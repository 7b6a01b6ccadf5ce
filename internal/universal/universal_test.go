package universal

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
)

// greetEnum enumerates candidate strategies for the greet scenario:
// candidate i repeatedly sends "HELLO" encoded in dialect i.
func greetEnum(t *testing.T, fam *dialect.Family) enumerate.Enumerator {
	t.Helper()
	return enumerate.FromFunc("greet-dialects", fam.Size(), func(i int) comm.Strategy {
		msg := fam.Dialect(i).Encode("HELLO")
		outs := make([]comm.Outbox, 64)
		for j := range outs {
			outs[j] = comm.Outbox{ToServer: msg}
		}
		return &commtest.Script{Outs: outs}
	})
}

// greetSense is positive as long as world confirmation arrives within the
// patience window.
func greetSense(patience int) sensing.Sense {
	return sensing.Patience(
		sensing.New(func(rv *comm.RoundView) bool { return rv.In.FromWorld == "OK" }),
		patience,
	)
}

func greetFamily(t *testing.T, n int) *dialect.Family {
	t.Helper()
	fam, err := dialect.NewWordFamily([]string{"HELLO", "WELCOME"}, n)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestNewCompactUserValidation(t *testing.T) {
	t.Parallel()

	fam := greetFamily(t, 2)
	if _, err := NewCompactUser(nil, greetSense(1)); err == nil {
		t.Error("nil enumerator accepted")
	}
	if _, err := NewCompactUser(greetEnum(t, fam), nil); err == nil {
		t.Error("nil sense accepted")
	}
}

func TestCompactUserAchievesGoalWithEveryDialect(t *testing.T) {
	t.Parallel()

	const n = 8
	fam := greetFamily(t, n)
	g := &commtest.GreetGoal{}

	for srvIdx := 0; srvIdx < n; srvIdx++ {
		srvIdx := srvIdx
		t.Run(fmt.Sprintf("server-dialect-%d", srvIdx), func(t *testing.T) {
			t.Parallel()

			u, err := NewCompactUser(greetEnum(t, fam), greetSense(5))
			if err != nil {
				t.Fatal(err)
			}
			srv := server.Dialected(&commtest.GreetServer{}, fam.Dialect(srvIdx))
			res, err := system.Run(u, srv, g.NewWorld(goal.Env{}), system.Config{
				MaxRounds: 400, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !goal.CompactAchieved(g, res.History, 10) {
				t.Fatalf("goal not achieved with server dialect %d (user index %d)",
					srvIdx, u.Index())
			}
		})
	}
}

func TestCompactUserConvergesToMatchingIndex(t *testing.T) {
	t.Parallel()

	const n = 8
	fam := greetFamily(t, n)
	u, err := NewCompactUser(greetEnum(t, fam), greetSense(5))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Dialected(&commtest.GreetServer{}, fam.Dialect(5))
	if _, err := system.Run(u, srv, &commtest.GreetWorld{}, system.Config{
		MaxRounds: 400, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if u.Index()%n != 5 {
		t.Fatalf("converged to index %d, want ≡5 (mod %d)", u.Index(), n)
	}
}

func TestCompactUserOverheadMonotoneInServerIndex(t *testing.T) {
	t.Parallel()

	// The enumeration visits dialects in order, so the eviction count
	// must grow with the index of the matching server — the overhead the
	// paper calls "essentially necessary".
	const n = 8
	fam := greetFamily(t, n)
	prev := -1
	for srvIdx := 0; srvIdx < n; srvIdx += 3 {
		u, err := NewCompactUser(greetEnum(t, fam), greetSense(5))
		if err != nil {
			t.Fatal(err)
		}
		srv := server.Dialected(&commtest.GreetServer{}, fam.Dialect(srvIdx))
		if _, err := system.Run(u, srv, &commtest.GreetWorld{}, system.Config{
			MaxRounds: 400, Seed: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if u.Switches() <= prev {
			t.Fatalf("switches %d not increasing at server %d", u.Switches(), srvIdx)
		}
		prev = u.Switches()
	}
}

func TestCompactUserWrapsAround(t *testing.T) {
	t.Parallel()

	// With an always-negative sense the user must cycle indefinitely
	// without running out of candidates.
	fam := greetFamily(t, 3)
	u, err := NewCompactUser(greetEnum(t, fam), sensing.Const(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.Run(u, server.Obstinate(), &commtest.GreetWorld{}, system.Config{
		MaxRounds: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 50 {
		t.Fatalf("run ended early: %d", res.Rounds)
	}
	if u.Index() < 40 {
		t.Fatalf("always-negative sense should evict every round, index = %d", u.Index())
	}
}

func TestCompactUserErrorContext(t *testing.T) {
	t.Parallel()

	boom := enumerate.FromFunc("boom", 1, func(int) comm.Strategy {
		return &commtest.ErrStrategy{Err: fmt.Errorf("inner failure")}
	})
	u, err := NewCompactUser(boom, sensing.Const(true))
	if err != nil {
		t.Fatal(err)
	}
	_, err = system.Run(u, server.Obstinate(), &commtest.GreetWorld{}, system.Config{MaxRounds: 5})
	if err == nil {
		t.Fatal("inner error swallowed")
	}
}

// --- finite-goal (Levin) tests ---

// guessEnum enumerates candidates for SecretWorld: candidate i sends
// "guess i" and halts after hearing back (3 rounds).
func guessEnum(n int) enumerate.Enumerator {
	return enumerate.FromFunc("guess", n, func(i int) comm.Strategy {
		return &commtest.Script{
			Outs:      []comm.Outbox{{ToWorld: comm.Message(fmt.Sprintf("guess %d", i))}},
			HaltAfter: 3,
		}
	})
}

func hitSense() sensing.Sense {
	return sensing.Sticky(sensing.New(func(rv *comm.RoundView) bool {
		return rv.In.FromWorld == "HIT"
	}))
}

func TestFiniteRunnerFindsSecret(t *testing.T) {
	t.Parallel()

	for _, secret := range []int{0, 3, 7} {
		secret := secret
		t.Run(fmt.Sprintf("secret-%d", secret), func(t *testing.T) {
			t.Parallel()

			fr := &FiniteRunner{Enum: guessEnum(16), Sense: hitSense()}
			res, err := fr.Run(
				func() comm.Strategy { return server.Obstinate() },
				func() goal.World { return &commtest.SecretWorld{Secret: secret} },
				1,
			)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Succeeded {
				t.Fatal("search failed")
			}
			if res.Index != secret {
				t.Fatalf("found index %d, want %d", res.Index, secret)
			}
			g := &commtest.SecretGoal{Secret: secret}
			if !g.Achieved(res.Final.History) {
				t.Fatal("referee rejects the successful attempt")
			}
		})
	}
}

func TestFiniteRunnerOverheadGrowsWithIndex(t *testing.T) {
	t.Parallel()

	total := func(secret int) int {
		fr := &FiniteRunner{Enum: guessEnum(64), Sense: hitSense()}
		res, err := fr.Run(
			func() comm.Strategy { return server.Obstinate() },
			func() goal.World { return &commtest.SecretWorld{Secret: secret} },
			1,
		)
		if err != nil || !res.Succeeded {
			t.Fatalf("secret %d: err=%v succeeded=%v", secret, err, res != nil && res.Succeeded)
		}
		return res.TotalRounds
	}
	if a, b := total(2), total(40); a >= b {
		t.Fatalf("overhead not growing: secret 2 → %d rounds, secret 40 → %d", a, b)
	}
}

func TestFiniteRunnerExponentialSchedule(t *testing.T) {
	t.Parallel()

	fr := &FiniteRunner{Enum: guessEnum(8), Sense: hitSense(), Schedule: ScheduleExponential}
	res, err := fr.Run(
		func() comm.Strategy { return server.Obstinate() },
		func() goal.World { return &commtest.SecretWorld{Secret: 2} },
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	// Budgets must follow the 2^(p-i) doubling schedule: each attempt's
	// budget is a power of two.
	for _, a := range res.Attempts {
		if a.Budget&(a.Budget-1) != 0 {
			t.Fatalf("budget %d not a power of two", a.Budget)
		}
		if a.Rounds > a.Budget {
			t.Fatalf("attempt exceeded budget: %+v", a)
		}
	}
	if !res.Succeeded || res.Budget < 3 {
		t.Fatalf("successful budget %d too small for the 3-round protocol", res.Budget)
	}
}

func TestFiniteRunnerUniformSchedule(t *testing.T) {
	t.Parallel()

	fr := &FiniteRunner{Enum: guessEnum(8), Sense: hitSense()}
	res, err := fr.Run(
		func() comm.Strategy { return server.Obstinate() },
		func() goal.World { return &commtest.SecretWorld{Secret: 2} },
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Attempts {
		if a.Rounds > a.Budget {
			t.Fatalf("attempt exceeded budget: %+v", a)
		}
	}
	if !res.Succeeded || res.Budget < 3 {
		t.Fatalf("successful budget %d too small for the 3-round protocol", res.Budget)
	}
}

func TestFiniteRunnerFailsGracefully(t *testing.T) {
	t.Parallel()

	// Secret outside the enumerated class: search must exhaust and
	// report failure rather than hang.
	fr := &FiniteRunner{Enum: guessEnum(4), Sense: hitSense(), MaxPhases: 8}
	res, err := fr.Run(
		func() comm.Strategy { return server.Obstinate() },
		func() goal.World { return &commtest.SecretWorld{Secret: 100} },
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatal("impossible search succeeded")
	}
	if res.Final != nil {
		t.Fatal("failed search returned a final execution")
	}
	if len(res.Attempts) == 0 {
		t.Fatal("no attempts recorded")
	}
}

func TestFiniteRunnerValidation(t *testing.T) {
	t.Parallel()

	fr := &FiniteRunner{}
	if _, err := fr.Run(nil, nil, 1); err == nil {
		t.Fatal("empty runner accepted")
	}
	fr = &FiniteRunner{Enum: guessEnum(2), Sense: hitSense()}
	if _, err := fr.Run(nil, nil, 1); err == nil {
		t.Fatal("nil factories accepted")
	}
}

func TestFiniteRunnerSafetyRejectsDishonestHalts(t *testing.T) {
	t.Parallel()

	// Candidates that halt without a HIT must never be accepted: the
	// sense is safe (positive only on genuinely hit views).
	fr := &FiniteRunner{Enum: guessEnum(8), Sense: hitSense(), MaxPhases: 6}
	res, err := fr.Run(
		func() comm.Strategy { return server.Obstinate() },
		func() goal.World { return &commtest.SecretWorld{Secret: 6} },
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Attempts {
		if a.Verdict && a.Index != 6 {
			t.Fatalf("unsafe acceptance of candidate %d", a.Index)
		}
	}
}
