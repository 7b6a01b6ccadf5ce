package printing

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func TestPaperTrayLimits(t *testing.T) {
	t.Parallel()

	g := &Goal{Docs: []string{"target"}, Paper: 2}
	w, ok := g.NewWorld(goal.Env{}).(*World)
	if !ok {
		t.Fatal("world type")
	}
	w.Reset(xrand.New(1))

	if w.paper-w.sheets != 2 {
		t.Fatalf("initial paper = %d", w.paper-w.sheets)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Step(comm.Inbox{FromServer: "EMIT junk"}); err != nil {
			t.Fatal(err)
		}
	}
	if w.paper-w.sheets != 0 {
		t.Fatalf("paper after 3 emits = %d", w.paper-w.sheets)
	}
	if printed, errorPages := w.Sheets(); printed != 2 || errorPages != 0 {
		t.Fatalf("Sheets() = %d, %d on a 2-sheet tray fed junk", printed, errorPages)
	}
	// The target can no longer be printed: non-forgiving.
	if _, err := w.Step(comm.Inbox{FromServer: "EMIT target"}); err != nil {
		t.Fatal(err)
	}
	if g.Acceptable(comm.History{States: []comm.WorldState{w.Snapshot()}}) {
		t.Fatal("goal achieved after tray exhausted")
	}
}

func TestUnlimitedPaper(t *testing.T) {
	t.Parallel()

	g := &Goal{}
	if !g.ForgivingGoal() {
		t.Fatal("unlimited-paper goal should be forgiving")
	}
	if (&Goal{Paper: 3}).ForgivingGoal() {
		t.Fatal("finite-paper goal should not be forgiving")
	}
	w, ok := g.NewWorld(goal.Env{}).(*World)
	if !ok {
		t.Fatal("world type")
	}
	w.Reset(xrand.New(1))
	if w.paper != 0 {
		t.Fatalf("unlimited tray holds %d sheets", w.paper)
	}
}

func TestTouchyServerPrintsErrorPages(t *testing.T) {
	t.Parallel()

	s := &TouchyServer{}
	s.Reset(xrand.New(1))

	out, err := s.Step(comm.Inbox{FromUser: "PRINT doc"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToWorld != "EMIT doc" {
		t.Fatalf("valid command mishandled: %+v", out)
	}

	out, err = s.Step(comm.Inbox{FromUser: "gibberish"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToWorld != "EMIT "+ErrorPage {
		t.Fatalf("garbage should print an error page: %+v", out)
	}

	out, err = s.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	if out != (comm.Outbox{}) {
		t.Fatalf("silence should not print: %+v", out)
	}
}

func TestUniversalBurnsPaperOnTouchyPrinter(t *testing.T) {
	t.Parallel()

	// The crux of ablation A1: with a touchy printer and a small tray,
	// universal probing destroys achievability — the goal is not
	// forgiving, so Theorem 1's guarantee (stated for forgiving goals)
	// rightly does not apply.
	fam := wordFam(t, 8)
	const serverIdx = 6

	run := func(paper int) bool {
		g := &Goal{Docs: []string{"target"}, Paper: paper}
		u, err := universal.NewCompactUser(Enum(fam), Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		srv := server.Dialected(&TouchyServer{}, fam.Dialect(serverIdx))
		res, err := system.Run(u, srv, g.NewWorld(goal.Env{}), system.Config{
			MaxRounds: 500, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return goal.CompactAchieved(g, res.History, 10)
	}

	if !run(0) {
		t.Fatal("unlimited paper: universal user should succeed")
	}
	if run(3) {
		t.Fatal("3-sheet tray: probing should exhaust the paper before dialect 6 is reached")
	}
}

func TestOraclePrintsWithinTinyTray(t *testing.T) {
	t.Parallel()

	// The oracle needs one sheet: the tray is not the obstacle, the
	// probing is.
	fam := wordFam(t, 8)
	g := &Goal{Docs: []string{"target"}, Paper: 1}
	usr := &Candidate{D: fam.Dialect(6), Resend: 100}
	srv := server.Dialected(&TouchyServer{}, fam.Dialect(6))
	res, err := system.Run(usr, srv, g.NewWorld(goal.Env{}), system.Config{
		MaxRounds: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !goal.CompactAchieved(g, res.History, 10) {
		t.Fatal("oracle failed on a 1-sheet tray")
	}
}
