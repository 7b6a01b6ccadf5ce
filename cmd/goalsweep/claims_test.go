package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// claimRows decodes a claims -json report into its rows by scenario ID,
// each re-encoded on its own, plus the IDs in report order.
func claimRows(t *testing.T, out string) (map[string]string, []string) {
	t.Helper()
	var report struct{ Claims []*scenario.Claim }
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string, len(report.Claims))
	var ids []string
	for _, c := range report.Claims {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		rows[c.ID] = string(b)
		ids = append(ids, c.ID)
	}
	return rows, ids
}

// TestClaimsByteIdenticalAcrossParallelism checks that the verdicts do not
// depend on the worker pool: control at class 8 holds every verdict but a
// counterexample, including the late row whose failed trial is rerun.
func TestClaimsByteIdenticalAcrossParallelism(t *testing.T) {
	t.Parallel()

	args := []string{"claims", "-builtin", "default", "-filter", "goal=control", "-filter", "class=8", "-json"}
	serial := runSweep(t, append(args, "-parallel", "1")...)
	for _, p := range []string{"2", "3"} {
		if got := runSweep(t, append(args, "-parallel", p)...); got != serial {
			t.Fatalf("claims -json differs between -parallel 1 and %s", p)
		}
	}
	for _, v := range []string{scenario.Holds, scenario.Late, scenario.Outside} {
		if !strings.Contains(serial, `"verdict": "`+v+`"`) {
			t.Fatalf("no %s row among the parity rows:\n%s", v, serial)
		}
	}
}

// TestClaimsSampleIsSubsetOfFullRun checks that a sampled claims run gives
// each of its rows exactly the verdict the full run gives it.
func TestClaimsSampleIsSubsetOfFullRun(t *testing.T) {
	t.Parallel()

	full, _ := claimRows(t, runSweep(t, "claims", "-builtin", "default", "-json"))
	sampled, ids := claimRows(t, runSweep(t, "claims", "-builtin", "default", "-sample", "40", "-json"))
	if len(ids) != 40 {
		t.Fatalf("sampled %d rows, want 40", len(ids))
	}
	for _, id := range ids {
		if sampled[id] != full[id] {
			t.Fatalf("sampled claim for %s differs from the full run:\n%s\n%s", id, sampled[id], full[id])
		}
	}
}

// TestClaimsValidation checks that claims refuses a window the certifier
// does not judge at, naming both windows, and a stray argument.
func TestClaimsValidation(t *testing.T) {
	t.Parallel()

	err := run([]string{"claims", "-builtin", "quick", "-window", "5"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "window 10") || !strings.Contains(err.Error(), "window 5") {
		t.Fatalf("claims -window 5: error %v, want one naming windows 10 and 5", err)
	}
	if err := run([]string{"claims", "-builtin", "quick", "extra"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), `"extra"`) {
		t.Fatalf("claims with a stray argument: error %v, want it refused", err)
	}
}
