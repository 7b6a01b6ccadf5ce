package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/trace"
)

var (
	achievedLine  = regexp.MustCompile(`(?m)^achieved:  (true|false)$`)
	convergedLine = regexp.MustCompile(`(?m)^rounds:    \d+ \(converged at (\d+)\)$`)
)

// TestExplainReproducesRows re-runs every trial of every row of the quick
// and adversarial sweeps through explain. Per row, explain's verdicts
// must reproduce the report's successes and mean converged round, and
// each trial's trace, decoded and re-judged offline by the recorded
// referee, must give explain's verdict.
func TestExplainReproducesRows(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	reg := scenario.Builtin()
	for _, builtin := range []string{"quick", "adversarial"} {
		var report struct {
			Scenarios []*scenario.Stats `json:"scenarios"`
		}
		if err := json.Unmarshal([]byte(runSweep(t, "-builtin", builtin, "-json")), &report); err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.BuiltinSpec(builtin)
		if err != nil {
			t.Fatal(err)
		}
		_, window, _ := scenario.SweepConfig{}.Effective(spec)
		for _, st := range report.Scenarios {
			bind, err := reg.Bind(&scenario.Scenario{Values: st.Axes})
			if err != nil {
				t.Fatal(err)
			}
			successes := 0
			var conv []float64
			for trial := 0; trial < st.Trials; trial++ {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", st.ID, trial))
				out := runSweep(t, "explain", "-builtin", builtin, "-id", st.ID,
					"-trial", strconv.Itoa(trial), "-trace", path)
				if !strings.HasPrefix(out, "scenario:  "+st.ID+" ") {
					t.Fatalf("explain output does not open with the scenario ID:\n%s", out)
				}
				a, c := achievedLine.FindStringSubmatch(out), convergedLine.FindStringSubmatch(out)
				if a == nil || c == nil {
					t.Fatalf("explain output lacks the verdict:\n%s", out)
				}
				achieved := a[1] == "true"
				if achieved {
					successes++
					n, _ := strconv.Atoi(c[1])
					conv = append(conv, float64(n))
				}

				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := trace.Decode(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if rec.Label != st.ID {
					t.Fatalf("trace labelled %q, want %q", rec.Label, st.ID)
				}
				if got := rec.JudgeCompact(bind.Goal, window); got != achieved {
					t.Errorf("%s trial %d: offline referee says %v, explain says %v", st.ID, trial, got, achieved)
				}
			}
			if successes != st.Successes || harness.Mean(conv) != st.Rounds.Mean {
				t.Errorf("%s: explain gives %d successes, mean converged round %v; the row has %d, %v",
					st.ID, successes, harness.Mean(conv), st.Successes, st.Rounds.Mean)
			}
		}
	}
}

func TestExplainValidation(t *testing.T) {
	t.Parallel()

	id := strings.Fields(runSweep(t, "-builtin", "quick", "-list"))[0]
	for _, args := range [][]string{
		{"explain", "-builtin", "quick"},                                     // no -id
		{"explain", "-builtin", "quick", "-id", "printing-0000000000000000"}, // not in the spec
		{"explain", "-builtin", "quick", "-id", id, "-trial", "1"},           // quick runs 1 trial per row
		{"explain", "-builtin", "quick", "-id", id, "-trial", "-1"},
		{"explain", "-builtin", "quick", "-id", id, "-sample", "3"}, // explain takes no subset flags
		{"explain", "-builtin", "quick", "-id", id, "stray"},
	} {
		var b strings.Builder
		if err := run(args, &b, &b); err == nil {
			t.Errorf("goalsweep %v accepted:\n%s", args, b.String())
		}
	}
	// -seeds names the sweep a row came from, so it widens the trial range.
	if out := runSweep(t, "explain", "-builtin", "quick", "-id", id, "-seeds", "3", "-trial", "2"); !strings.Contains(out, "trial:     2 of 3 ") {
		t.Fatalf("-seeds override not applied:\n%s", out)
	}
}
