package transfer

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

func fam(t *testing.T, n int) *dialect.Family {
	t.Helper()
	f, err := dialect.NewWordFamily(Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorldValidatesChunks(t *testing.T) {
	t.Parallel()

	w := &World{K: 3}
	w.Reset(xrand.New(1))

	// Wrong content is rejected.
	if _, err := w.Step(comm.Inbox{FromServer: "REL 0 wrongdata"}); err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "have=0/3;done=0" {
		t.Fatalf("wrong content accepted: %q", w.Snapshot())
	}

	// Out-of-range index is rejected.
	if _, err := w.Step(comm.Inbox{FromServer: comm.Message("REL 9 " + Data(9))}); err != nil {
		t.Fatal(err)
	}
	if w.Snapshot() != "have=0/3;done=0" {
		t.Fatalf("out-of-range chunk accepted: %q", w.Snapshot())
	}

	for i := 0; i < 3; i++ {
		msg := comm.Message(fmt.Sprintf("REL %d %s", i, Data(i)))
		if _, err := w.Step(comm.Inbox{FromServer: msg}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Snapshot() != "have=3/3;done=1" {
		t.Fatalf("snapshot after full transfer: %q", w.Snapshot())
	}
}

func TestParseStatus(t *testing.T) {
	t.Parallel()

	k, mask, ok := ParseStatus("WANT 4|HAVE 5")
	if !ok || k != 4 || mask != 5 {
		t.Fatalf("parsed (%d,%d,%v)", k, mask, ok)
	}
	for _, bad := range []comm.Message{"", "WANT 4", "WANT x|HAVE 1", "WANT 4|HAVE x", "W 4|H 1"} {
		if _, _, ok := ParseStatus(bad); ok {
			t.Errorf("ParseStatus(%q) accepted", bad)
		}
	}
}

func TestServerRelay(t *testing.T) {
	t.Parallel()

	s := &Server{}
	s.Reset(xrand.New(1))
	out, err := s.Step(comm.Inbox{FromUser: "STORE 2 blob2"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToWorld != "REL 2 blob2" || out.ToUser != "STORED 2" {
		t.Fatalf("relay output: %+v", out)
	}
	for _, bad := range []comm.Message{"STORE", "STORE x y", "junk", ""} {
		out, err := s.Step(comm.Inbox{FromUser: bad})
		if err != nil {
			t.Fatal(err)
		}
		if out != (comm.Outbox{}) {
			t.Fatalf("malformed %q produced %+v", bad, out)
		}
	}
}

func TestOracleCandidateTransfersAll(t *testing.T) {
	t.Parallel()

	f := fam(t, 4)
	g := &Goal{K: 6}
	usr := &Candidate{D: f.Dialect(2)}
	srv := server.Dialected(&Server{}, f.Dialect(2))
	res, err := system.Run(usr, srv, g.NewWorld(goal.Env{}), system.Config{
		MaxRounds: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !goal.CompactAchieved(g, res.History, 10) {
		t.Fatalf("transfer incomplete: %q", res.History.Last())
	}
}

func TestUniversalTransferAllDialects(t *testing.T) {
	t.Parallel()

	const n = 5
	f := fam(t, n)
	g := &Goal{K: 4}
	for i := 0; i < n; i++ {
		u, err := universal.NewCompactUser(Enum(f), Sense(0))
		if err != nil {
			t.Fatal(err)
		}
		srv := server.Dialected(&Server{}, f.Dialect(i))
		res, err := system.Run(u, srv, g.NewWorld(goal.Env{}), system.Config{
			MaxRounds: 100 * n, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !goal.CompactAchieved(g, res.History, 10) {
			t.Fatalf("universal transfer failed on dialect %d", i)
		}
	}
}

func TestUniversalTransferUnderNoise(t *testing.T) {
	t.Parallel()

	// Forgiving goal + retransmission: the universal user tolerates a
	// lossy server (p=0.3) with a patience large enough to ride out
	// drop streaks.
	f := fam(t, 4)
	g := &Goal{K: 6}
	u, err := universal.NewCompactUser(Enum(f), Sense(16))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Noisy(server.Dialected(&Server{}, f.Dialect(3)), 0.3)
	res, err := system.Run(u, srv, g.NewWorld(goal.Env{}), system.Config{
		MaxRounds: 3000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !goal.CompactAchieved(g, res.History, 10) {
		t.Fatalf("noisy transfer failed: %q", res.History.Last())
	}
}

func TestCandidateRoundRobinRetransmission(t *testing.T) {
	t.Parallel()

	c := &Candidate{D: dialect.Identity(0)}
	c.Reset(xrand.New(1))

	// World reports chunk 1 stored out of 3: candidate must cycle over
	// chunks 0 and 2 only.
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		out, err := c.Step(comm.Inbox{FromWorld: "WANT 3|HAVE 2"})
		if err != nil {
			t.Fatal(err)
		}
		seen[string(out.ToServer)]++
	}
	if seen["STORE 0 blob0"] != 3 || seen["STORE 2 blob2"] != 3 {
		t.Fatalf("round-robin over missing chunks wrong: %v", seen)
	}
	if seen["STORE 1 blob1"] != 0 {
		t.Fatal("candidate resent an already-stored chunk")
	}
}

func TestCandidateSilentWhenComplete(t *testing.T) {
	t.Parallel()

	c := &Candidate{D: dialect.Identity(0)}
	c.Reset(xrand.New(1))
	out, err := c.Step(comm.Inbox{FromWorld: "WANT 2|HAVE 3"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.ToServer.Empty() {
		t.Fatalf("candidate kept sending after completion: %q", out.ToServer)
	}
}

func TestSenseProgressSemantics(t *testing.T) {
	t.Parallel()

	s := Sense(2)
	status := func(mask int) *comm.RoundView {
		return &comm.RoundView{In: comm.Inbox{
			FromWorld: comm.Message(fmt.Sprintf("WANT 3|HAVE %d", mask)),
		}}
	}
	if !s.Observe(status(0)) {
		t.Fatal("first status should be grace")
	}
	if !s.Observe(status(1)) {
		t.Fatal("progress should be positive")
	}
	if !s.Observe(status(1)) {
		t.Fatal("one idle round within patience 2")
	}
	if s.Observe(status(1)) {
		t.Fatal("two idle rounds should be negative")
	}
	if !s.Observe(status(7)) {
		t.Fatal("completion should be positive")
	}
	if !s.Observe(status(7)) {
		t.Fatal("completion must stay positive despite no further progress")
	}
}

func TestGoalMetadata(t *testing.T) {
	t.Parallel()

	g := &Goal{}
	if g.Name() != "transfer" || !g.ForgivingGoal() {
		t.Fatal("metadata wrong")
	}
	if g.EnvChoices() != 1 {
		t.Fatal("env choices")
	}
	if w, ok := g.NewWorld(goal.Env{}).(*World); !ok || w.K != 8 {
		t.Fatal("default K wrong")
	}
}

// TestWorldMatchesReferenceModel drives the SoA world (scalar
// count/bitmask/generation layout with a cached status) against a
// straightforward bool-slice reference model with Sprintf encodings, over
// random REL traffic including duplicates, bad indices, corrupt payloads,
// and junk — across several Reset cycles. Status and snapshot must be
// byte-identical every round.
func TestWorldMatchesReferenceModel(t *testing.T) {
	t.Parallel()

	const K = 8
	w := &World{K: K}
	r := xrand.New(99)
	for run := 0; run < 3; run++ {
		w.Reset(nil)
		ref := make([]bool, K)
		for round := 0; round < 300; round++ {
			var in comm.Inbox
			switch r.Intn(6) {
			case 0: // valid chunk (possibly a duplicate re-release)
				i := r.Intn(K)
				in.FromServer = comm.Message(fmt.Sprintf("REL %d %s", i, Data(i)))
				ref[i] = true
			case 1: // wrong payload: must be rejected
				in.FromServer = comm.Message(fmt.Sprintf("REL %d junk", r.Intn(K)))
			case 2: // out-of-range index: must be rejected
				in.FromServer = comm.Message(fmt.Sprintf("REL %d %s", K+r.Intn(4), Data(K)))
			case 3: // malformed
				in.FromServer = "REL nope"
			case 4:
				in.FromServer = "HELLO"
			}
			out, err := w.Step(in)
			if err != nil {
				t.Fatal(err)
			}
			n, mask := 0, uint64(0)
			for i, h := range ref {
				if h {
					n++
					mask |= 1 << uint(i)
				}
			}
			wantStatus := fmt.Sprintf("WANT %d|HAVE %d", K, mask)
			if string(out.ToUser) != wantStatus {
				t.Fatalf("run %d round %d: status %q, want %q", run, round, out.ToUser, wantStatus)
			}
			done := 0
			if n == K {
				done = 1
			}
			wantSnap := fmt.Sprintf("have=%d/%d;done=%d", n, K, done)
			if got := string(w.Snapshot()); got != wantSnap {
				t.Fatalf("run %d round %d: snapshot %q, want %q", run, round, got, wantSnap)
			}
		}
	}
}
