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
// each goal at -class 4 and 8, at the default seed, to a digest recorded
// beside this test (testdata/<goal>-<class>.sha256). The digests were
// recorded on linux/amd64, like goalsweep's report goldens, and other
// platforms skip. To re-record one after a deliberate change of report
// content:
//
//	go run ./cmd/goalcert -goal control -class 8 -json | sha256sum | cut -d' ' -f1 > cmd/goalcert/testdata/control-8.sha256
func TestCertGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("certification goldens are recorded on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	for _, g := range certGoals {
		for _, class := range []string{"4", "8"} {
			name := g.name + "-" + class
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				want, err := os.ReadFile(filepath.Join("testdata", name+".sha256"))
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				if err := run([]string{"-goal", g.name, "-class", class, "-json"}, &b); err != nil {
					t.Fatalf("%v\n%s", err, b.String())
				}
				sum := sha256.Sum256([]byte(b.String()))
				if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
					t.Fatalf("goalcert -goal %s -class %s -json: report sha256 %s, want %s", g.name, class, got, strings.TrimSpace(string(want)))
				}
			})
		}
	}
}
