package scenario

import (
	"sync"
	"testing"

	"repro/internal/system"
)

// boundTrial is what a sweep reads off one trial.
type boundTrial struct {
	rounds, lastBad, msgs, switches int
	achieved                        bool
}

// runBound binds sc through reg and runs its trials as a sweep does:
// unrecorded, judged by the engine, at the default trial seeds.
func runBound(reg *Registry, sc *Scenario, trials int) ([]boundTrial, error) {
	bind, err := reg.Bind(sc)
	if err != nil {
		return nil, err
	}
	out := make([]boundTrial, trials)
	for t := range out {
		user, err := bind.User()
		if err != nil {
			return nil, err
		}
		res, err := system.Run(user, bind.Server(), bind.World(), system.Config{
			MaxRounds: bind.MaxRounds,
			Seed:      TrialSeed(1, sc, t),
			Record:    system.RecordOff,
			Referee:   bind.Goal,
		})
		if err != nil {
			return nil, err
		}
		out[t] = boundTrial{rounds: res.Rounds, lastBad: res.LastUnacceptable, msgs: res.Messages, achieved: res.Achieved(10)}
		if u, ok := user.(switcher); ok {
			out[t].switches = u.Switches()
		}
		system.ReleaseResult(res)
	}
	return out, nil
}

// TestSharedRegistryBindsAsFreshOnes holds Builtin's class memo to what
// it replaces, a fresh registry per scenario. One registry binds fsm
// machines of two spaces, and printing, transfer and control at classes 4
// and 8, with drift off and on, from several goroutines at once, each
// starting at a different scenario so the memo fills in different orders,
// and their trials run while the others bind. Every trial must equal the
// trial of the same scenario bound by a fresh Builtin(). No builtin spec
// mixes fsm spaces, so the report goldens cannot see a memo that ignores
// the space; this test can. CI runs it under -race.
func TestSharedRegistryBindsAsFreshOnes(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(&Spec{Name: "memo", Blocks: []Block{
		{Axes: []Axis{
			{Name: "goal", Values: []string{"fsm"}},
			{Name: "space", Values: []string{"2x2x2", "2x3x2"}},
			// Machine 32 cannot reach its target in 2x2x2 and can in
			// 2x3x2, so a goal built in the wrong space shows.
			{Name: "machine", Values: Ints(6, 32, 200)},
			{Name: "class", Values: Ints(4)},
			{Name: "drift", Values: Floats(0, 0.25)},
			{Name: "rounds", Values: Ints(300)},
		}},
		{Axes: []Axis{
			{Name: "goal", Values: []string{"printing", "transfer", "control"}},
			{Name: "class", Values: Ints(4, 8)},
			{Name: "drift", Values: Floats(0, 0.25)},
			{Name: "rounds", Values: Ints(300)},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const workers, trials = 4, 2
	n := int(m.Size())
	shared := Builtin()
	got := make([][][]boundTrial, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([][]boundTrial, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < n && errs[w] == nil; k++ {
				i := (k + w*n/workers) % n
				got[w][i], errs[w] = runBound(shared, m.At(int64(i)), trials)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		sc := m.At(int64(i))
		want, err := runBound(Builtin(), sc, trials)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			for k := range want {
				if got[w][i][k] != want[k] {
					t.Errorf("%s trial %d on worker %d: shared registry %+v, fresh registry %+v", sc, k, w, got[w][i][k], want[k])
				}
			}
		}
	}
}
