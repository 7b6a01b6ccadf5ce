package harness

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/enumerate"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/sensing"
	"repro/internal/server"
)

func TestTableRender(t *testing.T) {
	t.Parallel()

	tbl := &Table{
		ID:      "T0",
		Title:   "demo",
		Columns: []string{"name", "value"},
		Notes:   []string{"just a test"},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "23456")

	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"T0: demo", "name", "alpha", "23456", "note: just a test"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	t.Parallel()

	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tbl := &Table{ID: "X", Columns: []string{"a", "b"}}
	tbl.AddRow("only-one")
}

func TestSeriesRender(t *testing.T) {
	t.Parallel()

	s := &Series{
		ID: "F0", Title: "demo", XLabel: "round", YLabel: "mistakes",
		Lines: []Line{{Name: "halving", X: []float64{1, 2}, Y: []float64{0, 1}}},
	}
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"F0: demo", "halving", "x-axis: round"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReportRender(t *testing.T) {
	t.Parallel()

	r := &Report{
		Tables: []*Table{{ID: "T", Title: "t", Columns: []string{"c"}}},
		Series: []*Series{{ID: "F", Title: "f"}},
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "T: t") || !strings.Contains(b.String(), "F: f") {
		t.Fatal("report render incomplete")
	}
}

func TestStats(t *testing.T) {
	t.Parallel()

	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty stats not zero")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Max([]float64{1, 5, 3}); got != 5 {
		t.Fatalf("Max = %v", got)
	}
	if got := Percent(1, 4); got != "25.0%" {
		t.Fatalf("Percent = %q", got)
	}
	if got := Percent(1, 0); got != "n/a" {
		t.Fatalf("Percent div0 = %q", got)
	}
	if F(1.25) != "1.2" && F(1.25) != "1.3" {
		t.Fatalf("F = %q", F(1.25))
	}
	if I(7) != "7" {
		t.Fatalf("I = %q", I(7))
	}
}

// certifyAll certifies each server in turn, in g's world of the given
// environment choice.
func certifyAll(g goal.CompactGoal, env int, mkSense func() sensing.Sense, users enumerate.Enumerator,
	servers []func() comm.Strategy, cfg CertConfig) []Certificate {
	world := func() goal.World { return g.NewWorld(goal.Env{Choice: env}) }
	certs := make([]Certificate, len(servers))
	for i, srv := range servers {
		certs[i] = Certify(g, world, mkSense, users, srv, cfg)
	}
	return certs
}

func printingFixture(t *testing.T, n int) (*printing.Goal, *dialect.Family, []func() comm.Strategy) {
	t.Helper()
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]func() comm.Strategy, n)
	for i := range servers {
		d := fam.Dialect(i)
		servers[i] = func() comm.Strategy { return server.Dialected(&printing.Server{}, d) }
	}
	return &printing.Goal{Docs: []string{"doc"}}, fam, servers
}

// unhelpfulPrinters returns the printing servers that must not certify
// helpful: an obstinate one and a lying one, which ACKs without printing.
func unhelpfulPrinters() []func() comm.Strategy {
	return []func() comm.Strategy{
		server.Obstinate,
		func() comm.Strategy { return &printing.LyingServer{} },
	}
}

// TestHelpfulCompact checks Certify's helpfulness verdicts: each dialected
// printer's witness is the candidate of its own dialect, and neither
// probe has one.
func TestHelpfulCompact(t *testing.T) {
	t.Parallel()

	g, fam, servers := printingFixture(t, 4)
	cfg := CertConfig{MaxRounds: 100, Seed: 1}
	certs := certifyAll(g, 0, func() sensing.Sense { return printing.Sense(0) },
		printing.Enum(fam), append(servers, unhelpfulPrinters()...), cfg)
	for i, want := range []int{0, 1, 2, 3, -1, -1} {
		if certs[i].Witness != want {
			t.Fatalf("server %d: witness %d, want %d", i, certs[i].Witness, want)
		}
	}
}

// TestCertifySafetyCompactAcceptsSafeSense checks that the stock printing
// sense raises no safety violation against the class or the probes.
func TestCertifySafetyCompactAcceptsSafeSense(t *testing.T) {
	t.Parallel()

	g, fam, servers := printingFixture(t, 4)
	cfg := CertConfig{MaxRounds: 120, Seed: 1}
	for i, c := range certifyAll(g, 0, func() sensing.Sense {
		return printing.Sense(0)
	}, printing.Enum(fam), append(servers, unhelpfulPrinters()...), cfg) {
		if len(c.Unsafe) != 0 {
			t.Fatalf("server %d: safe sense flagged for candidates %v", i, c.Unsafe)
		}
	}
}

// TestCertifySafetyCompactRejectsTrustingSense checks that a sense
// trusting the lying printer's ACKs fails safety against it.
func TestCertifySafetyCompactRejectsTrustingSense(t *testing.T) {
	t.Parallel()

	g, fam, _ := printingFixture(t, 4)
	liars := []func() comm.Strategy{
		func() comm.Strategy { return &printing.LyingServer{} },
	}
	cfg := CertConfig{MaxRounds: 120, Seed: 1}
	unsafe := certifyAll(g, 0, func() sensing.Sense {
		return printing.TrustingSense()
	}, printing.Enum(fam), liars, cfg)[0].Unsafe
	if len(unsafe) != fam.Size() {
		t.Fatalf("trusting sense flagged candidates %v against the liar, want all %d", unsafe, fam.Size())
	}
}

// TestCertifyViabilityCompact checks Certify's viability verdicts against
// the class: viable for the stock sense, not viable with any server for a
// sense that no printer can satisfy.
func TestCertifyViabilityCompact(t *testing.T) {
	t.Parallel()

	g, fam, servers := printingFixture(t, 4)
	cfg := CertConfig{MaxRounds: 120, Seed: 1}

	for i, c := range certifyAll(g, 0, func() sensing.Sense {
		return printing.Sense(0)
	}, printing.Enum(fam), servers, cfg) {
		if !c.Viable {
			t.Fatalf("server %d: viable sense judged not viable", i)
		}
	}

	for i, c := range certifyAll(g, 0, func() sensing.Sense {
		return printing.ParanoidSense(0)
	}, printing.Enum(fam), servers, cfg) {
		if c.Viable {
			t.Fatalf("server %d: paranoid sense judged viable", i)
		}
	}
}

func TestStddev(t *testing.T) {
	t.Parallel()

	if Stddev(nil) != 0 || Stddev([]float64{5}) != 0 {
		t.Fatal("degenerate stddev not zero")
	}
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got < 1.99 || got > 2.01 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	t.Parallel()

	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile not zero")
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}
