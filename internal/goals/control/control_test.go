package control

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func TestOffsetFor(t *testing.T) {
	t.Parallel()

	want := []int{0, 1, -1, 2, -2, 3, -3}
	for i, w := range want {
		if got := OffsetFor(i); got != w {
			t.Fatalf("OffsetFor(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestNewUnitsFamilyValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewUnitsFamily(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewUnitsFamily(2*MaxForce + 2); err == nil {
		t.Error("oversized family accepted")
	}
	fam, err := NewUnitsFamily(9)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 9 {
		t.Fatalf("size = %d", fam.Size())
	}
}

func TestUnitsDialectRoundTrip(t *testing.T) {
	t.Parallel()

	u := Units{Off: 3, Idx: 1}
	for _, m := range []comm.Message{"MOVE 5", "MOVE -7", "MOVE 0"} {
		if got := u.Decode(u.Encode(m)); got != m {
			t.Fatalf("round trip of %q = %q", m, got)
		}
	}
	// Non-MOVE messages pass through.
	if u.Encode("STATUS") != "STATUS" || u.Decode("MOVED 3") != "MOVED 3" {
		t.Fatal("units dialect touched a non-MOVE message")
	}
	if u.Encode("MOVE x") != "MOVE x" {
		t.Fatal("units dialect touched a malformed MOVE")
	}
}

func TestServerAppliesClampedForce(t *testing.T) {
	t.Parallel()

	s := &Server{}
	s.Reset(xrand.New(1))
	out, err := s.Step(comm.Inbox{FromUser: "MOVE 4"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToWorld != "FORCE 4" || out.ToUser != "MOVED 4" {
		t.Fatalf("MOVE 4 → %+v", out)
	}
	out, err = s.Step(comm.Inbox{FromUser: "MOVE 99"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToWorld != "FORCE 10" {
		t.Fatalf("force not clamped: %+v", out)
	}
	out, err = s.Step(comm.Inbox{FromUser: "MOVE x"})
	if err != nil {
		t.Fatal(err)
	}
	if out != (comm.Outbox{}) {
		t.Fatalf("malformed MOVE produced %+v", out)
	}
}

func TestWorldPlantDynamics(t *testing.T) {
	t.Parallel()

	w := &World{initPos: 5, pos: 5, set: 8}
	w.Reset(xrand.New(1))
	out, err := w.Step(comm.Inbox{FromServer: "FORCE 2"})
	if err != nil {
		t.Fatal(err)
	}
	if w.pos != 7 {
		t.Fatalf("pos = %d, want 7", w.pos)
	}
	pos, set, ok := ParsePlant(out.ToUser)
	if !ok || pos != 7 || set != 8 {
		t.Fatalf("status = %q", out.ToUser)
	}
	if w.Snapshot() != "pos=7;set=8;at=0" {
		t.Fatalf("snapshot = %q", w.Snapshot())
	}
	if _, err := w.Step(comm.Inbox{FromServer: "FORCE 1"}); err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "pos=8;set=8;at=1" {
		t.Fatalf("snapshot at target = %q", w.Snapshot())
	}
}

func runControl(t *testing.T, usr comm.Strategy, srvOff dialect.Dialect, env int, rounds int) (*system.Result, *Goal) {
	t.Helper()
	g := &Goal{}
	srv := server.Dialected(&Server{}, srvOff)
	res, err := system.Run(usr, srv, g.NewWorld(goal.Env{Choice: env}), system.Config{
		MaxRounds: rounds, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func TestMatchingCandidateReachesSetpoint(t *testing.T) {
	t.Parallel()

	fam, err := NewUnitsFamily(9)
	if err != nil {
		t.Fatal(err)
	}
	for env := 0; env < 4; env++ {
		res, g := runControl(t, &Candidate{D: fam.Dialect(4)}, fam.Dialect(4), env, 120)
		if !goal.CompactAchieved(g, res.History, 10) {
			t.Fatalf("matching candidate failed env %d: %q", env, res.History.Last())
		}
	}
}

func TestMismatchedCandidateSticksOffTarget(t *testing.T) {
	t.Parallel()

	fam, err := NewUnitsFamily(9)
	if err != nil {
		t.Fatal(err)
	}
	res, g := runControl(t, &Candidate{D: fam.Dialect(1)}, fam.Dialect(6), 1, 300)
	if goal.CompactAchieved(g, res.History, 10) {
		t.Fatal("mismatched calibration reached the setpoint exactly")
	}
}

func TestUniversalControllerAllCalibrations(t *testing.T) {
	t.Parallel()

	const n = 9
	fam, err := NewUnitsFamily(n)
	if err != nil {
		t.Fatal(err)
	}
	for srvIdx := 0; srvIdx < n; srvIdx++ {
		srvIdx := srvIdx
		t.Run(fmt.Sprintf("calibration-%d", srvIdx), func(t *testing.T) {
			t.Parallel()
			u, err := universal.NewCompactUser(Enum(fam), Sense(0))
			if err != nil {
				t.Fatal(err)
			}
			res, g := runControl(t, u, fam.Dialect(srvIdx), 2, 200*n)
			if !goal.CompactAchieved(g, res.History, 10) {
				t.Fatalf("universal controller failed calibration %d (index %d)",
					srvIdx, u.Index())
			}
		})
	}
}

func TestAdaptiveIdentifiesEveryCalibration(t *testing.T) {
	t.Parallel()

	const n = 15
	fam, err := NewUnitsFamily(n)
	if err != nil {
		t.Fatal(err)
	}
	for srvIdx := 0; srvIdx < n; srvIdx++ {
		a := &Adaptive{}
		res, g := runControl(t, a, fam.Dialect(srvIdx), 3, 200)
		if !goal.CompactAchieved(g, res.History, 10) {
			t.Fatalf("adaptive failed calibration %d: %q", srvIdx, res.History.Last())
		}
		if a.Offset() != OffsetFor(srvIdx) {
			t.Fatalf("identified offset %d, want %d", a.Offset(), OffsetFor(srvIdx))
		}
	}
}

func TestAdaptiveBeatsEnumerationOnWorstCase(t *testing.T) {
	t.Parallel()

	const n = 15
	fam, err := NewUnitsFamily(n)
	if err != nil {
		t.Fatal(err)
	}
	worst := n - 1

	u, err := universal.NewCompactUser(Enum(fam), Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	resEnum, g := runControl(t, u, fam.Dialect(worst), 2, 400*n)
	resAdpt, _ := runControl(t, &Adaptive{}, fam.Dialect(worst), 2, 400*n)

	if !goal.CompactAchieved(g, resEnum.History, 10) || !goal.CompactAchieved(g, resAdpt.History, 10) {
		t.Fatal("one of the controllers failed")
	}
	enumRounds := goal.LastUnacceptable(g, resEnum.History)
	adptRounds := goal.LastUnacceptable(g, resAdpt.History)
	if adptRounds*2 >= enumRounds {
		t.Fatalf("adaptive (%d rounds) should clearly beat enumeration (%d rounds)",
			adptRounds, enumRounds)
	}
}

func TestSenseSemantics(t *testing.T) {
	t.Parallel()

	s := Sense(2)
	status := func(pos, set int) *comm.RoundView {
		return &comm.RoundView{In: comm.Inbox{
			FromWorld: comm.Message(fmt.Sprintf("POS %d|SET %d", pos, set)),
		}}
	}
	if !s.Observe(status(10, 0)) {
		t.Fatal("first status should start the tracker positively")
	}
	if !s.Observe(status(6, 0)) {
		t.Fatal("improvement should be positive")
	}
	if !s.Observe(status(6, 0)) {
		t.Fatal("one idle round within patience 2")
	}
	if s.Observe(status(6, 0)) {
		t.Fatal("stuck error should turn negative")
	}
	if !s.Observe(status(0, 0)) {
		t.Fatal("at-target must be positive")
	}
	if !s.Observe(status(0, 0)) {
		t.Fatal("at-target must stay positive")
	}
}

func TestGoalEnvDeterminism(t *testing.T) {
	t.Parallel()

	g := &Goal{}
	a, _ := g.NewWorld(goal.Env{Choice: 3}).(*World)
	b, _ := g.NewWorld(goal.Env{Choice: 3}).(*World)
	if a.Snapshot() != b.Snapshot() {
		t.Fatal("same env produced different plants")
	}
	c, _ := g.NewWorld(goal.Env{Choice: 4}).(*World)
	if a.Snapshot() == c.Snapshot() {
		t.Fatal("different envs produced identical plants")
	}
}

// TestWorldMatchesReferenceModel drives the SoA plant (scalar pos/gen
// layout with Reset-surviving memoized telemetry) against a plain
// integer reference with Sprintf encodings, over random FORCE traffic
// including zero forces, over-bound forces, and junk — across several
// Reset cycles. Telemetry and snapshot must be byte-identical every
// round.
func TestWorldMatchesReferenceModel(t *testing.T) {
	t.Parallel()

	w := &World{initPos: -3, pos: -3, set: 5}
	r := xrand.New(42)
	for run := 0; run < 3; run++ {
		w.Reset(nil)
		refPos := -3
		for round := 0; round < 300; round++ {
			var in comm.Inbox
			switch r.Intn(4) {
			case 0: // in-range force (may be 0: no-op)
				f := r.Intn(2*MaxForce+1) - MaxForce
				in.FromServer = comm.Message(fmt.Sprintf("FORCE %d", f))
				refPos += f
			case 1: // beyond the clamp
				f := 3 * MaxForce
				in.FromServer = comm.Message(fmt.Sprintf("FORCE %d", f))
				refPos += MaxForce
			case 2: // malformed
				in.FromServer = "FORCE much"
			}
			out, err := w.Step(in)
			if err != nil {
				t.Fatal(err)
			}
			wantStatus := fmt.Sprintf("POS %d|SET %d", refPos, 5)
			if string(out.ToUser) != wantStatus {
				t.Fatalf("run %d round %d: telemetry %q, want %q", run, round, out.ToUser, wantStatus)
			}
			at := 0
			if refPos == 5 {
				at = 1
			}
			wantSnap := fmt.Sprintf("pos=%d;set=%d;at=%d", refPos, 5, at)
			if got := string(w.Snapshot()); got != wantSnap {
				t.Fatalf("run %d round %d: snapshot %q, want %q", run, round, got, wantSnap)
			}
		}
	}
}
