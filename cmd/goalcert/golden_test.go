package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestCertGoldens pins the exact bytes of goalcert's -json report for
// each goal at -class 4 and 8, at the default seed, and of one failing
// certificate, to a digest recorded beside this test
// (testdata/<name>.sha256). The digests were recorded on linux/amd64,
// like goalsweep's report goldens, and other platforms skip. To re-record
// one after a deliberate change of report content:
//
//	go run ./cmd/goalcert -goal control -class 8 -json | sha256sum | cut -d' ' -f1 > cmd/goalcert/testdata/control-8.sha256
func TestCertGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("certification goldens are recorded on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	type golden struct {
		name string
		args []string
		fail string // the error the run must end with; "" for none
	}
	var goldens []golden
	for _, g := range certGoals {
		for _, class := range []string{"4", "8"} {
			goldens = append(goldens, golden{name: g.name + "-" + class, args: []string{"-goal", g.name, "-class", class, "-json"}})
		}
	}
	// At 20 rounds one control pairing (server 6, candidate 7) senses
	// success it has not reached: the one golden with a violation, and
	// the one whose bytes depend on control's world constructor.
	goldens = append(goldens, golden{
		name: "control-8-rounds-20",
		args: []string{"-goal", "control", "-class", "8", "-rounds", "20", "-json"},
		fail: "certification failed: 1 safety, 0 viability violations",
	})
	for _, gc := range goldens {
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", gc.name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := run(gc.args, &b); (err == nil) != (gc.fail == "") || err != nil && err.Error() != gc.fail {
				t.Fatalf("goalcert %s: error %v, want %q\n%s", strings.Join(gc.args, " "), err, gc.fail, b.String())
			}
			sum := sha256.Sum256([]byte(b.String()))
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Fatalf("goalcert %s: report sha256 %s, want %s", strings.Join(gc.args, " "), got, strings.TrimSpace(string(want)))
			}
		})
	}
}
