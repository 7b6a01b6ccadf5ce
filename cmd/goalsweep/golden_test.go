package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestReportGoldens pins the exact bytes of the -json report of every
// stock sweep and of a seeded family sample to a digest recorded beside
// this test (testdata/<name>.sha256). The other byte-identity checks
// compare one run with another, so a change that moves every run alike
// passes them; this one fails on any changed byte. The digests were
// recorded on linux/amd64, like bench/golden's, and other platforms skip.
// To re-record one after a deliberate change of report content:
//
//	go run ./cmd/goalsweep -builtin quick -json | sha256sum | cut -d' ' -f1 > cmd/goalsweep/testdata/quick.sha256
func TestReportGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("report goldens are recorded on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"quick", []string{"-builtin", "quick", "-json"}},
		{"default", []string{"-builtin", "default", "-json"}},
		{"adversarial", []string{"-builtin", "adversarial", "-json"}},
		{"family-sample", []string{"-builtin", "family", "-sample", "1000", "-sampleseed", "1", "-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(runSweep(t, tc.args...)))
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Fatalf("goalsweep %s: report sha256 %s, want %s", strings.Join(tc.args, " "), got, strings.TrimSpace(string(want)))
			}
		})
	}
}

// TestClaimsGoldens pins the exact bytes of goalsweep claims -json for the
// stock sweeps, like TestReportGoldens, and checks default's split, whose
// late and outside-but-succeeded rows docs/SWEEPS.md explains. To
// re-record one after a deliberate change of verdict content:
//
//	go run ./cmd/goalsweep claims -builtin quick -json | sha256sum | cut -d' ' -f1 > cmd/goalsweep/testdata/claims-quick.sha256
func TestClaimsGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("claims goldens are recorded on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	for _, name := range []string{"quick", "default", "adversarial"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "claims-"+name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			out := runSweep(t, "claims", "-builtin", name, "-json")
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Fatalf("goalsweep claims -builtin %s -json: sha256 %s, want %s", name, got, strings.TrimSpace(string(want)))
			}
			if name != "default" {
				return
			}
			var report struct{ Summary claimsSummary }
			if err := json.Unmarshal([]byte(out), &report); err != nil {
				t.Fatal(err)
			}
			if want := (claimsSummary{Scenarios: 288, Holds: 183, Late: 1, Outside: 103, OutsideSucceeded: 1}); report.Summary != want {
				t.Fatalf("default claims split %+v, want %+v", report.Summary, want)
			}
		})
	}
}
