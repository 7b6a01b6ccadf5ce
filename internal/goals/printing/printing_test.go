package printing

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

func wordFam(t *testing.T, n int) *dialect.Family {
	t.Helper()
	fam, err := dialect.NewWordFamily(Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestGoalMetadata(t *testing.T) {
	t.Parallel()

	g := &Goal{}
	if g.Name() != "printing" {
		t.Fatal("metadata wrong")
	}
	if g.EnvChoices() != len(DefaultDocs()) {
		t.Fatal("env choices should match default docs")
	}
	if !g.ForgivingGoal() {
		t.Fatal("printing goal must be forgiving")
	}
}

func TestNewWorldSelectsDoc(t *testing.T) {
	t.Parallel()

	g := &Goal{Docs: []string{"a", "b", "c"}}
	for choice := 0; choice < 6; choice++ {
		w, ok := g.NewWorld(goal.Env{Choice: choice}).(*World)
		if !ok {
			t.Fatal("world type")
		}
		if want := g.Docs[choice%3]; w.target != want {
			t.Fatalf("choice %d → target %q, want %q", choice, w.target, want)
		}
	}
}

func TestWorldRecordsEmits(t *testing.T) {
	t.Parallel()

	w := &World{target: "doc1"}
	w.Reset(xrand.New(1))

	out, err := w.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	task, printed, ok := ParseWorldMsg(out.ToUser)
	if !ok || task != "doc1" || printed != "" {
		t.Fatalf("announcement = %q", out.ToUser)
	}
	if w.Snapshot() != "target=doc1;printed=0;done=0" {
		t.Fatalf("snapshot = %q", w.Snapshot())
	}

	out, err = w.Step(comm.Inbox{FromServer: "EMIT other"})
	if err != nil {
		t.Fatal(err)
	}
	if _, printed, _ := ParseWorldMsg(out.ToUser); printed != "other" {
		t.Fatalf("printed field = %q", printed)
	}
	if w.Snapshot() != "target=doc1;printed=1;done=0" {
		t.Fatalf("snapshot after wrong doc = %q", w.Snapshot())
	}

	out, err = w.Step(comm.Inbox{FromServer: "EMIT doc1"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "target=doc1;printed=2;done=1" {
		t.Fatalf("snapshot after target = %q", w.Snapshot())
	}
	if _, printed, _ := ParseWorldMsg(out.ToUser); printed != "doc1" {
		t.Fatalf("printed field after target = %q", printed)
	}
	if printed, errorPages := w.Sheets(); printed != 2 || errorPages != 0 {
		t.Fatalf("Sheets() = %d, %d, want 2, 0", printed, errorPages)
	}
}

func TestParseWorldMsg(t *testing.T) {
	t.Parallel()

	tests := []struct {
		msg         comm.Message
		task, print string
		ok          bool
	}{
		{"TASK d|PRINTED ", "d", "", true},
		{"TASK d|PRINTED x", "d", "x", true},
		{"garbage", "", "", false},
		{"TASK d", "", "", false},
		{"FOO d|PRINTED x", "", "", false},
		{"", "", "", false},
	}
	for _, tt := range tests {
		task, printed, ok := ParseWorldMsg(tt.msg)
		if task != tt.task || printed != tt.print || ok != tt.ok {
			t.Errorf("ParseWorldMsg(%q) = (%q,%q,%v), want (%q,%q,%v)",
				tt.msg, task, printed, ok, tt.task, tt.print, tt.ok)
		}
	}
}

func TestServerNativeProtocol(t *testing.T) {
	t.Parallel()

	s := &Server{}
	s.Reset(xrand.New(1))
	out, err := s.Step(comm.Inbox{FromUser: "PRINT memo"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToWorld != "EMIT memo" || out.ToUser != "ACK memo" {
		t.Fatalf("PRINT handling = %+v", out)
	}
	out, err = s.Step(comm.Inbox{FromUser: "STATUS"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToUser != "READY" {
		t.Fatalf("STATUS reply = %q", out.ToUser)
	}
	out, err = s.Step(comm.Inbox{FromUser: "gibberish"})
	if err != nil {
		t.Fatal(err)
	}
	if out != (comm.Outbox{}) {
		t.Fatalf("gibberish produced output: %+v", out)
	}
}

func TestCandidateWaitsForTask(t *testing.T) {
	t.Parallel()

	c := &Candidate{D: dialect.Identity(0)}
	c.Reset(xrand.New(1))
	out, err := c.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	if out != (comm.Outbox{}) {
		t.Fatal("candidate acted before receiving a task")
	}
	out, err = c.Step(comm.Inbox{FromWorld: "TASK memo|PRINTED "})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToServer != "PRINT memo" {
		t.Fatalf("candidate command = %q", out.ToServer)
	}
	// A reused candidate follows the task of the world it now faces.
	c.Reset(xrand.New(2))
	out, err = c.Step(comm.Inbox{FromWorld: "TASK poster|PRINTED memo"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToServer != "PRINT poster" {
		t.Fatalf("reused candidate command = %q, want PRINT poster", out.ToServer)
	}
}

func TestCandidateRetries(t *testing.T) {
	t.Parallel()

	c := &Candidate{D: dialect.Identity(0), Resend: 3}
	c.Reset(xrand.New(1))
	sent := 0
	for i := 0; i < 9; i++ {
		out, err := c.Step(comm.Inbox{FromWorld: "TASK m|PRINTED "})
		if err != nil {
			t.Fatal(err)
		}
		if !out.ToServer.Empty() {
			sent++
		}
	}
	if sent != 3 {
		t.Fatalf("sent %d commands in 9 rounds with period 3", sent)
	}
}

// endToEnd runs one full printing execution and reports achievement.
func endToEnd(t *testing.T, fam *dialect.Family, usr comm.Strategy, srv comm.Strategy, rounds int) (*system.Result, bool) {
	t.Helper()
	g := &Goal{}
	w := g.NewWorld(goal.Env{Choice: 1})
	res, err := system.Run(usr, srv, w, system.Config{MaxRounds: rounds, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return res, goal.CompactAchieved(g, res.History, 10)
}

func TestOracleUserSucceeds(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 6)
	srv := server.Dialected(&Server{}, fam.Dialect(4))
	usr := &Candidate{D: fam.Dialect(4)}
	if _, ok := endToEnd(t, fam, usr, srv, 60); !ok {
		t.Error("oracle user failed")
	}
}

func TestFixedUserFailsOnMismatch(t *testing.T) {
	t.Parallel()

	fam := wordFam(t, 6)
	srv := server.Dialected(&Server{}, fam.Dialect(3))
	usr := &Candidate{D: fam.Dialect(0)}
	if _, ok := endToEnd(t, fam, usr, srv, 200); ok {
		t.Fatal("fixed-protocol user succeeded against a mismatched dialect")
	}
}

func TestUniversalUserSucceedsWithEveryDialect(t *testing.T) {
	t.Parallel()

	const n = 6
	fam := wordFam(t, n)
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("%s-%d", fam.Name(), i), func(t *testing.T) {
			t.Parallel()
			u, err := universal.NewCompactUser(Enum(fam), Sense(0))
			if err != nil {
				t.Fatal(err)
			}
			srv := server.Dialected(&Server{}, fam.Dialect(i))
			if _, ok := endToEnd(t, fam, u, srv, 400); !ok {
				t.Fatalf("universal user failed on dialect %d", i)
			}
		})
	}
}

func TestUniversalUserWithDelayedPrinter(t *testing.T) {
	t.Parallel()

	// A helpful-but-slow printer, whose prints and replies both lag:
	// still within sensing patience if we give a larger window.
	fam := wordFam(t, 4)
	u, err := universal.NewCompactUser(Enum(fam), Sense(9))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Slow(server.Dialected(&Server{}, fam.Dialect(2)), 2)
	if _, ok := endToEnd(t, fam, u, srv, 600); !ok {
		t.Fatal("universal user failed with delayed printer")
	}
}

func TestSenseSafety(t *testing.T) {
	t.Parallel()

	// The safe sense must never go (and stay) positive with the lying
	// printer: replaying any losing execution yields a negative final
	// indication.
	fam := wordFam(t, 4)
	u, err := universal.NewCompactUser(Enum(fam), Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	res, ok := endToEnd(t, fam, u, &LyingServer{}, 200)
	if ok {
		t.Fatal("goal achieved with lying printer?!")
	}
	if sensing.Replay(Sense(0), res.View) {
		t.Fatal("safe sense positive on a failing execution")
	}
}

func TestTrustingSenseIsUnsafe(t *testing.T) {
	t.Parallel()

	// The ablation sense goes positive with the lying printer even
	// though the goal is not achieved — a safety violation by design.
	fam := wordFam(t, 4)
	u, err := universal.NewCompactUser(Enum(fam), TrustingSense())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := endToEnd(t, fam, u, &LyingServer{}, 200)
	if ok {
		t.Fatal("goal achieved with lying printer?!")
	}
	if !sensing.Replay(TrustingSense(), res.View) {
		t.Fatal("trusting sense failed to be fooled — ablation broken")
	}
}

func TestParanoidSenseIsNonViable(t *testing.T) {
	t.Parallel()

	// With the non-viable sense the universal user churns forever even
	// against a perfectly good printer (it may still stumble into
	// printing, but never earns a positive indication).
	fam := wordFam(t, 4)
	u, err := universal.NewCompactUser(Enum(fam), ParanoidSense(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Dialected(&Server{}, fam.Dialect(1))
	res, _ := endToEnd(t, fam, u, srv, 200)
	if sensing.Replay(ParanoidSense(0), res.View) {
		t.Fatal("paranoid sense produced a positive indication")
	}
	if u.Switches() < 10 {
		t.Fatalf("paranoid user should churn; switches = %d", u.Switches())
	}
}

func TestRefereeMonotone(t *testing.T) {
	t.Parallel()

	// Once acceptable, prefixes stay acceptable (done flag persists).
	fam := wordFam(t, 3)
	u, err := universal.NewCompactUser(Enum(fam), Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Dialected(&Server{}, fam.Dialect(2))
	g := &Goal{}
	w := g.NewWorld(goal.Env{})
	res, err := system.Run(u, srv, w, system.Config{MaxRounds: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	first := goal.LastUnacceptable(g, res.History)
	for n := first + 1; n <= res.History.Len(); n++ {
		if !g.Acceptable(res.History.Prefix(n)) {
			t.Fatalf("referee not monotone at prefix %d", n)
		}
	}
}

// TestWorldMatchesReferenceModel drives the SoA printout (sheet and
// error-page counters, scalar last/done layout, a string-keyed
// announcement cache) against a straightforward string-slice reference
// with Sprintf encodings, over random EMIT traffic including repeats of
// the same page, error pages and junk — across several Reset cycles, with
// an unlimited tray and a 2-sheet one. Announcement, snapshot and Sheets
// must match the reference every round.
func TestWorldMatchesReferenceModel(t *testing.T) {
	t.Parallel()

	docs := []string{"report7", "thesis3", "memo42", ErrorPage}
	r := xrand.New(17)
	for _, paper := range []int{0, 2} {
		w := (&Goal{Docs: []string{"thesis3"}, Paper: paper}).NewWorld(goal.Env{}).(*World)
		for run := 0; run < 3; run++ {
			w.Reset(nil)
			var printed []string
			refDone := false
			for round := 0; round < 300; round++ {
				var in comm.Inbox
				switch r.Intn(4) {
				case 0, 1: // emit a page (repeats are common in steady state)
					doc := docs[r.Intn(len(docs))]
					in.FromServer = comm.Message("EMIT " + doc)
					if paper == 0 || len(printed) < paper {
						printed = append(printed, doc)
						if doc == "thesis3" {
							refDone = true
						}
					}
				case 2: // junk
					in.FromServer = "READY"
				}
				out, err := w.Step(in)
				if err != nil {
					t.Fatal(err)
				}
				last := ""
				if len(printed) > 0 {
					last = printed[len(printed)-1]
				}
				wantStatus := fmt.Sprintf("TASK %s|PRINTED %s", "thesis3", last)
				if string(out.ToUser) != wantStatus {
					t.Fatalf("paper %d run %d round %d: announcement %q, want %q", paper, run, round, out.ToUser, wantStatus)
				}
				done := 0
				if refDone {
					done = 1
				}
				wantSnap := fmt.Sprintf("target=%s;printed=%d;done=%d", "thesis3", len(printed), done)
				if got := string(w.Snapshot()); got != wantSnap {
					t.Fatalf("paper %d run %d round %d: snapshot %q, want %q", paper, run, round, got, wantSnap)
				}
				wantErr := 0
				for _, doc := range printed {
					if strings.Contains(doc, ErrorPage) {
						wantErr++
					}
				}
				if sheets, errorPages := w.Sheets(); sheets != len(printed) || errorPages != wantErr {
					t.Fatalf("paper %d run %d round %d: Sheets() = %d, %d, want %d, %d", paper, run, round, sheets, errorPages, len(printed), wantErr)
				}
			}
		}
	}
}
