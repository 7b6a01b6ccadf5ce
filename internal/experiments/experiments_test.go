package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/system"
)

func TestEveryExperimentRendersQuick(t *testing.T) {
	t.Parallel()

	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := r.Run(Config{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Tables) == 0 && len(rep.Series) == 0 {
				t.Fatal("empty report")
			}
			var b strings.Builder
			if err := rep.Render(&b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), r.ID) {
				t.Fatalf("report does not mention its id:\n%s", b.String())
			}
		})
	}
}

func TestAllRegistered(t *testing.T) {
	t.Parallel()

	ids := map[string]bool{}
	for _, r := range All() {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "F1", "F2"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, err := ByID("T99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// cell extracts column col of the first row whose cells contain all keys.
func cell(t *testing.T, rows [][]string, col int, keys ...string) string {
	t.Helper()
rows:
	for _, row := range rows {
		joined := strings.Join(row, " ")
		for _, k := range keys {
			if !strings.Contains(joined, k) {
				continue rows
			}
		}
		return row[col]
	}
	t.Fatalf("no row matching %v", keys)
	return ""
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestT1Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows

	// Universal succeeds everywhere; fixed only on its own dialect.
	if got := cell(t, rows, 2, "8", "universal"); got != "100.0%" {
		t.Fatalf("universal success at N=8: %s", got)
	}
	fixed := atof(t, cell(t, rows, 2, "8", "fixed"))
	if fixed > 20 {
		t.Fatalf("fixed success at N=8 too high: %v%%", fixed)
	}
	// Oracle converges faster than universal on average.
	oracleMean := atof(t, cell(t, rows, 3, "8", "oracle"))
	univMean := atof(t, cell(t, rows, 3, "8", "universal"))
	if oracleMean >= univMean {
		t.Fatalf("oracle mean %v !< universal mean %v", oracleMean, univMean)
	}
}

// TestT1VerdictMatchesRecordOff holds T1's early stop to the full runs:
// at N = 4, 16 and 64, every trial of every kind reaches the same verdict
// and convergence round under RecordVerdict as under RecordOff, and a
// verdict run that ended early ended at the round after its convergence
// round (the first the printout's latch accepted).
func TestT1VerdictMatchesRecordOff(t *testing.T) {
	t.Parallel()

	cfg := Config{Seed: 1}
	for _, n := range []int{4, 16, 64} {
		verdicts, err := t1Kinds(cfg, n, system.RecordVerdict)
		if err != nil {
			t.Fatal(err)
		}
		fulls, err := t1Kinds(cfg, n, system.RecordOff)
		if err != nil {
			t.Fatal(err)
		}
		early := 0
		for k := range verdicts {
			got, err := system.RunBatch(verdicts[k].trials, cfg.batch())
			if err != nil {
				t.Fatal(err)
			}
			want, err := system.RunBatch(fulls[k].trials, cfg.batch())
			if err != nil {
				t.Fatal(err)
			}
			horizon := verdicts[k].trials[0].Config.MaxRounds
			for i := range got {
				g, w := got[i], want[i]
				if g.Achieved(10) != w.Achieved(10) || g.LastUnacceptable != w.LastUnacceptable {
					t.Errorf("N=%d %s server %d: verdict run achieved %v at %d, full run %v at %d",
						n, verdicts[k].name, i, g.Achieved(10), g.LastUnacceptable, w.Achieved(10), w.LastUnacceptable)
				}
				if g.Rounds < horizon {
					early++
					if g.Rounds != g.LastUnacceptable+1 {
						t.Errorf("N=%d %s server %d: ended after %d rounds, converged at %d",
							n, verdicts[k].name, i, g.Rounds, g.LastUnacceptable)
					}
				}
				system.ReleaseResult(g)
				system.ReleaseResult(w)
			}
		}
		if early == 0 {
			t.Errorf("N=%d: no verdict run ended early", n)
		}
	}
}

func TestT2Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("T2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows

	// Worst-case rounds grow with N for the universal user.
	w4 := atof(t, cell(t, rows, 2, "4", "in order"))
	w8 := atof(t, cell(t, rows, 2, "8", "in order"))
	if w8 <= w4 {
		t.Fatalf("worst rounds not growing: N=4→%v, N=8→%v", w4, w8)
	}
	// The oracle is flat and far below the universal worst case.
	o8 := atof(t, cell(t, rows, 2, "8", "oracle"))
	if o8 >= w8/2 {
		t.Fatalf("oracle worst %v not well below universal %v", o8, w8)
	}
	// Shuffled order pays comparable mean cost (information-theoretic
	// lower bound binds any order).
	m8inorder := atof(t, cell(t, rows, 3, "8", "in order"))
	m8shuffled := atof(t, cell(t, rows, 3, "8", "shuffled"))
	if m8shuffled < m8inorder/4 {
		t.Fatalf("shuffled mean %v implausibly below in-order mean %v", m8shuffled, m8inorder)
	}

	// The closed form, exactly: a universal user in either order needs
	// 5N−3 rounds against the secret it tries last and 2.5N−0.5 on
	// average over the N secrets; the oracle needs 2. This counts the
	// engine's rounds, so any change to round counting shows here.
	for _, quick := range []bool{true, false} {
		for _, seed := range []uint64{1, 2} {
			rep, err := r.Run(Config{Quick: quick, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sizes := map[float64]bool{}
			for _, row := range rep.Tables[0].Rows {
				n := atof(t, row[0])
				sizes[n] = true
				worst, mean := 5*n-3, 2.5*n-0.5
				if row[1] == "oracle" {
					worst, mean = 2, 2
				}
				if got, gotMean := atof(t, row[2]), atof(t, row[3]); got != worst || gotMean != mean {
					t.Errorf("quick=%v seed %d, N=%v %s: worst %v, mean %v rounds; want %v and %v",
						quick, seed, n, row[1], got, gotMean, worst, mean)
				}
			}
			if want := map[bool]int{true: 2, false: 4}[quick]; len(rep.Tables[0].Rows) != 3*want || len(sizes) != want {
				t.Errorf("quick=%v seed %d: %d rows over %d class sizes", quick, seed, len(rep.Tables[0].Rows), len(sizes))
			}
		}
	}
}

func TestT3Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("T3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Found index equals server index in every row; total rounds grow.
	prev := -1.0
	for _, row := range rows {
		if row[0] != row[1] {
			t.Fatalf("found %s for server %s", row[1], row[0])
		}
		total := atof(t, row[3])
		if total <= prev {
			t.Fatalf("total rounds not growing: %v after %v", total, prev)
		}
		prev = total
	}
}

func TestT4Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("T4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows

	if got := cell(t, rows, 1, "safe+viable"); got != "100.0%" {
		t.Fatalf("safe sensing success: %s", got)
	}
	if got := cell(t, rows, 2, "safe+viable"); got != "100.0%" {
		t.Fatalf("safe sensing should settle: %s", got)
	}
	if got := cell(t, rows, 3, "safe+viable"); got != "0.0%" {
		t.Fatalf("safe sensing false positives: %s", got)
	}
	if got := cell(t, rows, 3, "unsafe"); got != "100.0%" {
		t.Fatalf("unsafe sensing should be fooled: %s", got)
	}
	if got := cell(t, rows, 2, "non-viable"); got != "0.0%" {
		t.Fatalf("non-viable sensing should never settle: %s", got)
	}
}

func TestT5Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("T5")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows

	// Under a concentrated prior (s=2) belief order tries far fewer
	// candidates than it does under the flat prior (s=0).
	flat := atof(t, cell(t, rows, 2, "0.0", "belief"))
	steep := atof(t, cell(t, rows, 2, "2.0", "belief"))
	if steep >= flat {
		t.Fatalf("belief order under s=2 (%v) should beat s=0 (%v)", steep, flat)
	}
	// Belief order must clearly beat index order under the concentrated
	// prior: the mass sits on arbitrary indices, so index order pays
	// ~N/2 while belief order pays the expected rank.
	idx2 := atof(t, cell(t, rows, 2, "2.0", "index"))
	if steep >= idx2/2 {
		t.Fatalf("belief order (%v) not clearly better than index order (%v) under s=2", steep, idx2)
	}
}

func TestT6Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("T6")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	for _, row := range rows {
		if row[4] != "yes" {
			t.Fatalf("wrong max in row %v", row)
		}
		if atof(t, row[3]) < 1 {
			t.Fatalf("reduction cheaper than native in row %v", row)
		}
	}
	// Cost grows with the number of parties (match on the k column
	// exactly, not substrings of other cells).
	byK := func(k string) []string {
		for _, row := range rows {
			if row[0] == k {
				return row
			}
		}
		t.Fatalf("no row for k=%s", k)
		return nil
	}
	r2 := atof(t, byK("2")[2])
	r3 := atof(t, byK("3")[2])
	if r3 <= r2 {
		t.Fatalf("reduction rounds not growing: k=2→%v k=3→%v", r2, r3)
	}
}

func TestF1Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("F1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 1 || len(rep.Series[0].Lines) != 3 {
		t.Fatalf("series shape wrong: %+v", rep.Series)
	}
	rows := rep.Tables[0].Rows

	for _, m := range []string{"16", "32"} {
		halv := atof(t, cell(t, rows, 2, m, "halving"))
		enum := atof(t, cell(t, rows, 2, m, "enumeration"))
		fixed := atof(t, cell(t, rows, 2, m, "fixed"))
		if !(halv < enum && enum < fixed) {
			t.Fatalf("M=%s ordering broken: halving=%v enum=%v fixed=%v", m, halv, enum, fixed)
		}
		if got := cell(t, rows, 4, m, "halving"); got != "yes" {
			t.Fatalf("halving did not achieve at M=%s", m)
		}
		if got := cell(t, rows, 4, m, "fixed"); got != "no" {
			t.Fatalf("fixed concept achieved at M=%s", m)
		}
	}
}

func TestF2Shape(t *testing.T) {
	t.Parallel()

	r, err := ByID("F2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	line := rep.Series[0].Lines[0]
	// The index trace is a non-decreasing staircase.
	for i := 1; i < len(line.Y); i++ {
		if line.Y[i] < line.Y[i-1] {
			t.Fatalf("index trace decreased at %d", i)
		}
	}
	// It converges to the matching candidate.
	row := rep.Tables[0].Rows[0]
	if row[1] != row[4] {
		t.Fatalf("final index %s != server index %s", row[4], row[1])
	}
}
