package fsm

import (
	"slices"
	"strconv"
	"sync"
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
	if sp.dims != (fst.Space{NumStates: 2, NumIn: 3, NumOut: 2}) {
		t.Fatalf("parsed %+v", sp.dims)
	}
	if sp.name != "2x3x2" {
		t.Fatalf("round trip = %q", sp.name)
	}
	// The space's messages are the protocol's, one per state and input.
	if got := []comm.Message{sp.runMsg[1], sp.pressed[2], sp.sym[2]}; got[0] != "RUN q1" || got[1] != "PRESSED 2" || got[2] != "sym 2" {
		t.Fatalf("space messages %q", got)
	}
	if len(sp.runMsg) != 2 || len(sp.pressed) != 3 || len(sp.sym) != 3 {
		t.Fatalf("space holds %d state and %d, %d input messages", len(sp.runMsg), len(sp.pressed), len(sp.sym))
	}
	// A canonical spelling names the same space.
	if sp, err := ParseSpace("02x3x02"); err != nil || sp.name != "2x3x2" {
		t.Fatalf("ParseSpace(02x3x02) = %v, %v", sp, err)
	}
	for _, bad := range []string{"", "2x3", "2x3x2x2", "0x1x1", "ax1x1", "2x-1x2"} {
		if _, err := ParseSpace(bad); err == nil {
			t.Fatalf("ParseSpace(%q) accepted", bad)
		}
	}
}

func TestSpaceGoalRejectsBadIndex(t *testing.T) {
	t.Parallel()

	sp, err := ParseSpace("2x2x2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Goal(sp.dims.Size()); err == nil {
		t.Fatal("index == Size accepted")
	}
	if _, err := sp.Goal(sp.dims.Size() - 1); err != nil {
		t.Fatalf("last index rejected: %v", err)
	}
}

// newGoal builds machine idx of the space with the given dimensions.
func newGoal(t *testing.T, dims fst.Space, idx uint64) *Goal {
	t.Helper()
	g, err := newSpace(dims).Goal(idx)
	if err != nil {
		t.Fatal(err)
	}
	return g
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
	g := newGoal(t, sp, idx)
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
	g0 := newGoal(t, sp, 0)
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
	g := newGoal(t, sp, idx)
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
				out, err := c.Step(comm.Inbox{FromWorld: g.sp.runMsg[q]})
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
	g := newGoal(t, sp, idx)
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

// TestConcurrentSnapshotsMatchFreshGoal pins the snapshots a goal builds
// on first use: workers whose worlds share one goal and ask for their
// first snapshots at once all read, for every state and done flag, the
// strings a fresh goal's world gives.
func TestConcurrentSnapshotsMatchFreshGoal(t *testing.T) {
	t.Parallel()

	sp, err := ParseSpace("3x3x2")
	if err != nil {
		t.Fatal(err)
	}
	const index = 1729
	snapshots := func(g *Goal) []comm.WorldState {
		w := g.NewWorld(goal.Env{}).(*World)
		var out []comm.WorldState
		for q := 0; q < sp.dims.NumStates; q++ {
			for _, done := range []bool{false, true} {
				w.state, w.done = q, done
				out = append(out, w.Snapshot())
			}
		}
		return out
	}
	fresh, err := sp.Goal(index)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshots(fresh)
	if want[3] != "fsm=3x3x2#1729;q=1;done=1" {
		t.Fatalf("snapshot of state 1, done: %q", want[3])
	}
	shared, err := sp.Goal(index)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]comm.WorldState, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = snapshots(shared)
		}()
	}
	wg.Wait()
	for i := range got {
		if !slices.Equal(got[i], want) {
			t.Fatalf("worker %d read %q, a fresh goal %q", i, got[i], want)
		}
	}
}

func TestServerPanelProtocol(t *testing.T) {
	t.Parallel()

	sp, idx := winnable(t)
	g := newGoal(t, sp, idx)
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
		g := newGoal(t, sp, idx)
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
	g := newGoal(t, sp, 0) // all-zero machine: target unreachable
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
