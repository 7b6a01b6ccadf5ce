package system

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/goal"
	"repro/internal/xrand"
)

// rngUser emits one random number per round, or silence when the number
// is a multiple of 3 — seed-sensitive, so batches exercise per-trial seed
// derivation, determinism and the engine's message count.
type rngUser struct{ r *xrand.Rand }

func (u *rngUser) Reset(r *xrand.Rand) {
	if r == nil {
		r = xrand.New(0)
	}
	u.r = r
}

func (u *rngUser) Step(comm.Inbox) (comm.Outbox, error) {
	n := u.r.Uint64() % 1000
	if n%3 == 0 {
		return comm.Outbox{}, nil
	}
	return comm.Outbox{ToWorld: comm.Message(strconv.FormatUint(n, 10))}, nil
}

// evenGoal accepts every prefix past round 20, and an earlier one iff the
// user's last message to the world was an even number. The engine judges
// the live CountingWorld; Acceptable judges its recorded snapshots.
type evenGoal struct{}

func (evenGoal) Name() string                 { return "even" }
func (evenGoal) NewWorld(goal.Env) goal.World { return &commtest.CountingWorld{} }
func (evenGoal) EnvChoices() int              { return 1 }

func (evenGoal) Acceptable(h comm.History) bool {
	return even(h.Len(), commtest.ParseCounting(h.Last()))
}

func (evenGoal) AcceptableWorld(w goal.World) bool {
	cw := w.(*commtest.CountingWorld)
	return even(cw.Round(), string(cw.LastUser()))
}

func even(round int, u string) bool {
	return round > 20 || (u != "" && (u[len(u)-1]-'0')%2 == 0)
}

// failingUser errors at step FailAt.
type failingUser struct {
	FailAt int
	step   int
}

func (u *failingUser) Reset(*xrand.Rand) { u.step = 0 }

func (u *failingUser) Step(comm.Inbox) (comm.Outbox, error) {
	if u.step == u.FailAt {
		return comm.Outbox{}, errors.New("boom")
	}
	u.step++
	return comm.Outbox{}, nil
}

func rngTrials(n int, rounds int) []Trial {
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{
			User:   func() (comm.Strategy, error) { return &rngUser{}, nil },
			Server: func() comm.Strategy { return &commtest.Echo{} },
			World:  func() goal.World { return &commtest.CountingWorld{} },
			Config: Config{MaxRounds: rounds, Seed: uint64(i + 1), Referee: evenGoal{}},
		}
	}
	return trials
}

// TestRunBatchMatchesSerialAtEveryParallelism checks that every trial's
// result — history, view, rounds and the engine's verdict and message
// count — is the same at every parallelism, with each batch's workers
// drawing their run frames from the pool the batch before released, and
// that the serial verdicts are the recorded histories' own.
func TestRunBatchMatchesSerialAtEveryParallelism(t *testing.T) {
	const n, rounds = 17, 40
	mkTrials := func() []Trial { return rngTrials(n, rounds) }

	want, err := RunBatch(mkTrials(), BatchConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want[0].LastUnacceptable == want[1].LastUnacceptable && want[0].Messages == want[1].Messages {
		t.Fatal("trials 0 and 1 reach the same verdict and message count: the comparison below is weak")
	}
	for i, res := range want {
		if got := goal.LastUnacceptable(evenGoal{}, res.History); res.LastUnacceptable != got {
			t.Fatalf("trial %d: engine last rejected prefix %d, recorded %d", i, res.LastUnacceptable, got)
		}
	}
	for _, par := range []int{2, 3, 8, 32} {
		got, err := RunBatch(mkTrials(), BatchConfig{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != n {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].History, want[i].History) ||
				!reflect.DeepEqual(got[i].View, want[i].View) ||
				got[i].Rounds != want[i].Rounds || got[i].Halted != want[i].Halted ||
				got[i].LastUnacceptable != want[i].LastUnacceptable || got[i].Messages != want[i].Messages {
				t.Fatalf("parallelism %d: trial %d diverges from serial", par, i)
			}
		}
		// Recycle the results, so the next batch's workers draw their
		// run frames from the shared pool.
		for _, res := range got {
			ReleaseResult(res)
		}
	}
}

func TestRunBatchSeedDerivationDeterministic(t *testing.T) {
	const n = 9
	derived := func() []Trial {
		trials := rngTrials(n, 20)
		for i := range trials {
			trials[i].Config.Seed = DeriveSeed(42, i)
		}
		return trials
	}
	run := func(par int) []*Result {
		res, err := RunBatch(derived(), BatchConfig{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, res := run(1), run(4)
	for i := range a {
		if !reflect.DeepEqual(a[i].History, res[i].History) {
			t.Fatalf("trial %d: derived-seed run differs between parallelism levels", i)
		}
	}
	// Derived seeds give distinct trials distinct streams.
	if reflect.DeepEqual(res[0].History, res[1].History) {
		t.Fatal("derived seeds did not differentiate trials")
	}
	// And DeriveSeed must reproduce a single trial in isolation.
	single, err := Run(&rngUser{}, &commtest.Echo{}, &commtest.CountingWorld{},
		Config{MaxRounds: 20, Seed: DeriveSeed(42, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.History, res[1].History) {
		t.Fatal("DeriveSeed does not reproduce trial 1")
	}
}

func TestRunBatchReportsLowestIndexError(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		trials := rngTrials(24, 10)
		for _, bad := range []int{19, 5, 11} {
			trials[bad].User = func() (comm.Strategy, error) {
				return &failingUser{FailAt: 3}, nil
			}
		}
		_, err := RunBatch(trials, BatchConfig{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: expected error", par)
		}
		want := fmt.Sprintf("system: trial %d:", 5)
		if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
			t.Fatalf("parallelism %d: error %q does not name lowest failing trial 5", par, got)
		}
	}
}

func TestRunEachToleratesPerTrialFailures(t *testing.T) {
	trials := rngTrials(8, 10)
	trials[2].User = func() (comm.Strategy, error) { return &failingUser{FailAt: 0}, nil }
	trials[6].User = func() (comm.Strategy, error) { return nil, errors.New("no user") }
	results, errs := RunEach(trials, BatchConfig{Parallelism: 4})
	for i := range trials {
		failed := i == 2 || i == 6
		if failed && (errs[i] == nil || results[i] != nil) {
			t.Fatalf("trial %d: want failure, got err=%v res=%v", i, errs[i], results[i])
		}
		if !failed && (errs[i] != nil || results[i] == nil) {
			t.Fatalf("trial %d: want success, got err=%v", i, errs[i])
		}
	}
}

func TestRunBatchEmptyAndNilFactories(t *testing.T) {
	res, err := RunBatch(nil, BatchConfig{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	_, err = RunBatch([]Trial{{}}, BatchConfig{})
	if err == nil {
		t.Fatal("nil factories must fail")
	}
}

func TestRecordOffKeepsOnlyCounters(t *testing.T) {
	res, err := Run(&rngUser{}, &commtest.Echo{}, &commtest.CountingWorld{},
		Config{MaxRounds: 25, Seed: 9, Record: RecordOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History.States) != 0 || len(res.View.Rounds) != 0 {
		t.Fatal("off retention recorded data")
	}
	if res.Rounds != 25 || res.History.Len() != 25 {
		t.Fatalf("off retention lost counters: rounds=%d len=%d", res.Rounds, res.History.Len())
	}
}

func TestOnRoundFiresUnderEveryRetention(t *testing.T) {
	for _, rec := range []RecordPolicy{RecordFull, RecordOff} {
		var rounds int
		var lastState comm.WorldState
		_, err := Run(&rngUser{}, &commtest.Echo{}, &commtest.CountingWorld{},
			Config{MaxRounds: 12, Seed: 2, Record: rec,
				OnRound: func(round int, rv comm.RoundView, state comm.WorldState) {
					rounds++
					lastState = state
				}})
		if err != nil {
			t.Fatal(err)
		}
		if rounds != 12 || lastState == "" {
			t.Fatalf("%v: OnRound fired %d times (last %q)", rec, rounds, lastState)
		}
	}
}

func TestReleaseResultRecyclesStorage(t *testing.T) {
	run := func() *Result {
		res, err := Run(&rngUser{}, &commtest.Echo{}, &commtest.CountingWorld{},
			Config{MaxRounds: 30, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	states := append([]comm.WorldState(nil), first.History.States...)
	ReleaseResult(first)
	ReleaseResult(nil) // must not panic
	second := run()
	if !reflect.DeepEqual(second.History.States, states) {
		t.Fatal("recycled result differs from fresh run")
	}
}

func TestRecordPolicyString(t *testing.T) {
	cases := map[string]RecordPolicy{
		"full": RecordFull,
		"off":  RecordOff,
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}
