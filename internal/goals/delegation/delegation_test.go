package delegation

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func TestGenerateSolvable(t *testing.T) {
	t.Parallel()

	r := xrand.New(5)
	for i := 0; i < 50; i++ {
		ins := Generate(10, r)
		mask, ok := ins.Solve()
		if !ok {
			t.Fatalf("generated instance unsolvable: %+v", ins)
		}
		if !ins.Verify(mask) {
			t.Fatalf("solver's witness fails verification: %+v mask=%d", ins, mask)
		}
	}
}

func TestGenerateClampsN(t *testing.T) {
	t.Parallel()

	r := xrand.New(1)
	if got := len(Generate(0, r).Weights); got != 1 {
		t.Fatalf("n=0 → %d weights", got)
	}
	if got := len(Generate(100, r).Weights); got != 62 {
		t.Fatalf("n=100 → %d weights", got)
	}
}

func TestVerify(t *testing.T) {
	t.Parallel()

	ins := Instance{Weights: []int64{3, 5, 8}, Target: 11}
	if !ins.Verify(0b101) { // 3 + 8
		t.Fatal("correct witness rejected")
	}
	if ins.Verify(0b011) { // 3 + 5 = 8
		t.Fatal("wrong witness accepted")
	}
	if ins.Verify(0b1000) { // out of range bit
		t.Fatal("out-of-range mask accepted")
	}
}

func TestSolveUnsolvable(t *testing.T) {
	t.Parallel()

	ins := Instance{Weights: []int64{2, 4, 6}, Target: 5}
	if _, ok := ins.Solve(); ok {
		t.Fatal("unsolvable instance solved")
	}
}

func TestSolveRejectsEmptyWitnessTargetZero(t *testing.T) {
	t.Parallel()

	// Target 0 with the empty subset only: Solve demands a non-empty
	// witness, so it must report failure rather than mask 0.
	ins := Instance{Weights: []int64{1, 2}, Target: 0}
	if _, ok := ins.Solve(); ok {
		t.Fatal("empty witness accepted")
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, n uint8) bool {
		r := xrand.New(seed)
		ins := Generate(int(n%16)+1, r)
		back, ok := ParseInstance(ins.Encode())
		if !ok || back.Target != ins.Target || len(back.Weights) != len(ins.Weights) {
			return false
		}
		for i := range ins.Weights {
			if back.Weights[i] != ins.Weights[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseInstanceMalformed(t *testing.T) {
	t.Parallel()

	for _, s := range []string{"", "1,2", "1,2;x", "a,b;3", ";5", "1,,2;3"} {
		if _, ok := ParseInstance(s); ok {
			t.Errorf("ParseInstance(%q) accepted", s)
		}
	}
}

func TestWorldVerifiesAnswers(t *testing.T) {
	t.Parallel()

	w := &World{instance: Instance{Weights: []int64{3, 5, 8}, Target: 11}}
	w.Reset(xrand.New(1))

	out, err := w.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != comm.Message("INSTANCE 3,5,8;11") {
		t.Fatalf("announcement = %q", out.ToUser)
	}

	if _, err := w.Step(comm.Inbox{FromUser: "ANSWER 3"}); err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "answered=1;solved=0" {
		t.Fatalf("wrong answer snapshot = %q", w.Snapshot())
	}

	if _, err := w.Step(comm.Inbox{FromUser: "ANSWER 5"}); err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "answered=1;solved=1" {
		t.Fatalf("correct answer snapshot = %q", w.Snapshot())
	}
}

func TestServerSolvesOwnProtocol(t *testing.T) {
	t.Parallel()

	s := &Server{}
	s.Reset(xrand.New(1))
	out, err := s.Step(comm.Inbox{FromUser: "SOLVE 3,5,8;11"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "WITNESS 5" { // mask 0b101 = 5 selects 3+8
		t.Fatalf("witness = %q", out.ToUser)
	}
	// Garbage and unsolvable instances are ignored.
	for _, msg := range []comm.Message{"SOLVE junk", "SOLVE 2,4;5", "hello"} {
		out, err := s.Step(comm.Inbox{FromUser: msg})
		if err != nil {
			t.Fatal(err)
		}
		if out != (comm.Outbox{}) {
			t.Fatalf("message %q produced output %+v", msg, out)
		}
	}
}

func mkFam(t *testing.T, n int) *dialect.Family {
	t.Helper()
	fam, err := dialect.NewWordFamily(Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// TestCandidateAsksForEachAnnouncedInstance reuses one candidate across
// two executions, as a runner that keeps its candidates would: after a
// Reset and a new announcement it must ask for the new instance, not
// replay the request it built for the old one.
func TestCandidateAsksForEachAnnouncedInstance(t *testing.T) {
	t.Parallel()

	d := mkFam(t, 4).Dialect(2)
	c := &Candidate{D: d}
	for _, instance := range []string{"3,5,8;11", "2,7;9"} {
		c.Reset(xrand.New(1))
		out, err := c.Step(comm.Inbox{FromWorld: comm.Message("INSTANCE " + instance)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.Decode(out.ToServer), comm.Message("SOLVE "+instance); got != want {
			t.Fatalf("candidate sent %q, want %q", got, want)
		}
	}
}

func TestOracleCandidateEndToEnd(t *testing.T) {
	t.Parallel()

	fam := mkFam(t, 4)
	g := &Goal{N: 10}
	w := g.NewWorld(goal.Env{Choice: 2})
	usr := &Candidate{D: fam.Dialect(3)}
	srv := server.Dialected(&Server{}, fam.Dialect(3))
	res, err := system.Run(usr, srv, w, system.Config{MaxRounds: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("candidate never halted")
	}
	if !g.Achieved(res.History) {
		t.Fatalf("goal not achieved; last state %q", res.History.Last())
	}
}

func TestMismatchedCandidateNeverHalts(t *testing.T) {
	t.Parallel()

	fam := mkFam(t, 4)
	g := &Goal{N: 10}
	w := g.NewWorld(goal.Env{Choice: 2})
	usr := &Candidate{D: fam.Dialect(1)}
	srv := server.Dialected(&Server{}, fam.Dialect(2))
	res, err := system.Run(usr, srv, w, system.Config{MaxRounds: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("mismatched candidate halted")
	}
	if g.Achieved(res.History) {
		t.Fatal("goal achieved despite mismatch")
	}
}

func TestUniversalFiniteRunnerAllDialects(t *testing.T) {
	t.Parallel()

	const n = 6
	fam := mkFam(t, n)
	g := &Goal{N: 10}
	for srvIdx := 0; srvIdx < n; srvIdx++ {
		srvIdx := srvIdx
		t.Run(fmt.Sprintf("dialect-%d", srvIdx), func(t *testing.T) {
			t.Parallel()
			fr := &universal.FiniteRunner{Enum: Enum(fam), Sense: Sense()}
			res, err := fr.Run(
				func() comm.Strategy { return server.Dialected(&Server{}, fam.Dialect(srvIdx)) },
				func() goal.World { return g.NewWorld(goal.Env{Choice: 1}) },
				9,
			)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Succeeded {
				t.Fatal("finite search failed")
			}
			if res.Index != srvIdx {
				t.Fatalf("found candidate %d, want %d", res.Index, srvIdx)
			}
			if !g.Achieved(res.Final.History) {
				t.Fatal("referee rejects final history")
			}
		})
	}
}

func TestSenseSafety(t *testing.T) {
	t.Parallel()

	// A candidate that submits a wrong answer and halts must get a
	// negative replayed verdict.
	g := &Goal{N: 8}
	w := g.NewWorld(goal.Env{Choice: 3})
	liar := &wrongAnswerUser{}
	res, err := system.Run(liar, server.Obstinate(), w, system.Config{MaxRounds: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("liar never halted")
	}
	if g.Achieved(res.History) {
		t.Fatal("wrong answer achieved the goal?!")
	}
	if sensing.Replay(Sense(), res.View) {
		t.Fatal("sense accepted a wrong answer — safety violated")
	}
}

// wrongAnswerUser answers 0 (never a valid witness) and halts.
type wrongAnswerUser struct {
	sent   bool
	halted bool
}

func (u *wrongAnswerUser) Reset(*xrand.Rand) { u.sent, u.halted = false, false }

func (u *wrongAnswerUser) Step(in comm.Inbox) (comm.Outbox, error) {
	if u.sent {
		u.halted = true
		return comm.Outbox{}, nil
	}
	if !in.FromWorld.Empty() {
		u.sent = true
		return comm.Outbox{ToWorld: "ANSWER 0"}, nil
	}
	return comm.Outbox{}, nil
}

func (u *wrongAnswerUser) Halted() bool { return u.halted }

func TestGoalEnvDeterminism(t *testing.T) {
	t.Parallel()

	g := &Goal{N: 10}
	w1, _ := g.NewWorld(goal.Env{Choice: 4}).(*World)
	w2, _ := g.NewWorld(goal.Env{Choice: 4}).(*World)
	if w1.Instance().Encode() != w2.Instance().Encode() {
		t.Fatal("same env produced different instances")
	}
	w3, _ := g.NewWorld(goal.Env{Choice: 5}).(*World)
	if w1.Instance().Encode() == w3.Instance().Encode() {
		t.Fatal("different envs produced identical instances")
	}
}
