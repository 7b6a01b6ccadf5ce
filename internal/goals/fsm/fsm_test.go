package fsm

import (
	"strconv"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/fst"
	"repro/internal/goal"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func TestParseSpaceRoundTrip(t *testing.T) {
	t.Parallel()

	sp, err := ParseSpace("2x3x2")
	if err != nil {
		t.Fatal(err)
	}
	if sp != (fst.Space{NumStates: 2, NumIn: 3, NumOut: 2}) {
		t.Fatalf("parsed %+v", sp)
	}
	if got := FormatSpace(sp); got != "2x3x2" {
		t.Fatalf("round trip = %q", got)
	}
	for _, bad := range []string{"", "2x3", "2x3x2x2", "0x1x1", "ax1x1", "2x-1x2"} {
		if _, err := ParseSpace(bad); err == nil {
			t.Fatalf("ParseSpace(%q) accepted", bad)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	t.Parallel()

	sp := fst.Space{NumStates: 2, NumIn: 2, NumOut: 2}
	if _, err := New(sp, sp.Size()); err == nil {
		t.Fatal("index == Size accepted")
	}
	if _, err := New(fst.Space{}, 0); err == nil {
		t.Fatal("invalid space accepted")
	}
}

// winnable returns the index (in 2x2x2) of a machine where pressing 1
// from state 0 moves to state 1 silently, and pressing 0 from state 1
// emits the target: feasible in two presses, forgiving.
func winnable(t *testing.T) (fst.Space, uint64) {
	t.Helper()
	sp := fst.Space{NumStates: 2, NumIn: 2, NumOut: 2}
	m := &fst.Machine{
		NumStates: 2, NumIn: 2, NumOut: 2,
		// cells: (q0,i0) (q0,i1) (q1,i0) (q1,i1)
		Next: []int{0, 1, 1, 0},
		Out:  []int{0, 0, 1, 0},
	}
	idx, err := sp.Index(m)
	if err != nil {
		t.Fatal(err)
	}
	return sp, idx
}

func TestAnalysisComputesPolicyAndFlags(t *testing.T) {
	t.Parallel()

	sp, idx := winnable(t)
	g, err := New(sp, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Feasible() || !g.ForgivingGoal() {
		t.Fatalf("winnable machine analyzed as feasible=%v forgiving=%v", g.Feasible(), g.ForgivingGoal())
	}
	if g.policy[0] != 1 || g.policy[1] != 0 {
		t.Fatalf("policy = %v, want [1 0]", g.policy)
	}
	if g.target != 1 {
		t.Fatalf("target = %d", g.target)
	}

	// Machine 0 of any space maps every cell to (state 0, output 0):
	// the target output 1 is never emitted — the canonical infeasible
	// machine.
	g0, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0.Feasible() || g0.ForgivingGoal() {
		t.Fatal("all-zero machine analyzed as feasible")
	}
	if g0.policy[0] != -1 {
		t.Fatalf("dead state has policy %d", g0.policy[0])
	}
}

// TestCandidatePressesPolicyKeyPerState checks a reused candidate and its
// table of encoded commands: in each announced state it must send its
// dialect's encoding of "press <policy[state]>". The winnable machine's
// policy needs a different key in each state, so a table that ignored
// its key would re-send the first key's command in the other state.
func TestCandidatePressesPolicyKeyPerState(t *testing.T) {
	t.Parallel()

	sp, idx := winnable(t)
	g, err := New(sp, idx)
	if err != nil {
		t.Fatal(err)
	}
	if g.policy[0] == g.policy[1] {
		t.Fatalf("policy %v needs one key, not two", g.policy)
	}
	fam := family(t, 4)
	for d := 0; d < fam.Size(); d++ {
		c := &Candidate{D: fam.Dialect(d), G: g}
		// One candidate, two executions, the states in either order.
		for _, states := range [][]int{{0, 1, 0}, {1, 0, 1}} {
			c.Reset(xrand.New(1))
			for _, q := range states {
				out, err := c.Step(comm.Inbox{FromWorld: g.runMsg[q]})
				if err != nil {
					t.Fatal(err)
				}
				want := fam.Dialect(d).Encode(comm.Message("press " + strconv.Itoa(g.policy[q])))
				if out.ToServer != want {
					t.Fatalf("dialect %d, state %d: candidate sent %q, want %q", d, q, out.ToServer, want)
				}
				// It presses every third round.
				for i := 0; i < 2; i++ {
					if out, err := c.Step(comm.Inbox{}); err != nil || !out.ToServer.Empty() {
						t.Fatalf("dialect %d: pressed %q between presses (err %v)", d, out.ToServer, err)
					}
				}
			}
		}
	}
}

func TestWorldRunsMachineAndLatchesDone(t *testing.T) {
	t.Parallel()

	sp, idx := winnable(t)
	g, err := New(sp, idx)
	if err != nil {
		t.Fatal(err)
	}
	w := g.NewWorld(goal.Env{}).(*World)
	w.Reset(xrand.New(1))

	out, err := w.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "RUN q0" || string(w.Snapshot()) != "fsm=2x2x2#"+itoa(idx)+";q=0;done=0" {
		t.Fatalf("initial round: %q %q", out.ToUser, w.Snapshot())
	}
	out, err = w.Step(comm.Inbox{FromServer: "sym 1"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "RUN q1" || string(w.Snapshot()) != "fsm=2x2x2#"+itoa(idx)+";q=1;done=0" {
		t.Fatalf("after sym 1: %q %q", out.ToUser, w.Snapshot())
	}

	out, err = w.Step(comm.Inbox{FromServer: "sym 0"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "DONE" {
		t.Fatalf("target emission not announced: %q", out.ToUser)
	}
	if !g.AcceptableWorld(w) {
		t.Fatal("live judge rejects done world")
	}
	// done latches across further (even garbage) symbols.
	for _, msg := range []comm.Message{"sym 1", "sym 9", "nonsense", ""} {
		out, err = w.Step(comm.Inbox{FromServer: msg})
		if err != nil {
			t.Fatal(err)
		}
		if out.ToUser != "DONE" {
			t.Fatalf("done unlatched by %q", msg)
		}
	}
	h := comm.History{States: []comm.WorldState{w.Snapshot()}}
	if !g.Acceptable(h) {
		t.Fatal("referee rejects done snapshot")
	}
}

func itoa(u uint64) string {
	if u == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	return string(b[i:])
}

func TestServerPanelProtocol(t *testing.T) {
	t.Parallel()

	sp, idx := winnable(t)
	g, err := New(sp, idx)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{G: g}
	s.Reset(xrand.New(1))
	tests := []struct {
		msg     comm.Message
		toUser  comm.Message
		toWorld comm.Message
	}{
		{"press 0", "PRESSED 0", "sym 0"},
		{"press 1", "PRESSED 1", "sym 1"},
		{"press 2", "", ""},
		{"press -1", "", ""},
		{"press x", "", ""},
		{"open", "", ""},
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

func family(t *testing.T, n int) *dialect.Family {
	t.Helper()
	fam, err := dialect.NewWordFamily(Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestUniversalDrivesFeasibleMachines(t *testing.T) {
	t.Parallel()

	sp := fst.Space{NumStates: 2, NumIn: 2, NumOut: 2}
	fam := family(t, 4)
	tried, achieved := 0, 0
	for idx := uint64(0); idx < 40 && tried < 6; idx++ {
		g, err := New(sp, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Feasible() || !g.ForgivingGoal() {
			continue
		}
		tried++
		// Pair the universal user with every dialect member of the class.
		for d := 0; d < fam.Size(); d++ {
			u, err := universal.NewCompactUser(g.Enum(fam), Sense(0))
			if err != nil {
				t.Fatal(err)
			}
			srv := server.Dialected(&Server{G: g}, fam.Dialect(d))
			res, err := system.Run(u, srv, g.NewWorld(goal.Env{}),
				system.Config{MaxRounds: 400, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !goal.CompactAchieved(g, res.History, 10) {
				t.Fatalf("machine %d, dialect %d: goal not achieved", idx, d)
			}
		}
		achieved++
	}
	if achieved == 0 {
		t.Fatal("no feasible forgiving machine found in the probe range")
	}
}

func TestInfeasibleMachinePinnedFailing(t *testing.T) {
	t.Parallel()

	sp := fst.Space{NumStates: 2, NumIn: 2, NumOut: 2}
	g, err := New(sp, 0) // all-zero machine: target unreachable
	if err != nil {
		t.Fatal(err)
	}
	fam := family(t, 4)
	u, err := universal.NewCompactUser(g.Enum(fam), Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.Run(u, server.Dialected(&Server{G: g}, fam.Dialect(0)), g.NewWorld(goal.Env{}),
		system.Config{MaxRounds: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if goal.CompactAchieved(g, res.History, 10) {
		t.Fatal("infeasible machine was achieved")
	}
}
