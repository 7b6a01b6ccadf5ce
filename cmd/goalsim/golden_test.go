package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestQuickReportGolden pins the exact bytes of the quick-scale paper
// tables at seed 1 to the digest in testdata/quick.sha256, as
// bench/golden/paper.sha256 pins the full-scale ones, but fast enough for
// every test run. The digest was recorded on linux/amd64; other platforms
// skip. To re-record it after a deliberate change of report content:
//
//	go run ./cmd/goalsim -experiment all -quick -json -seed 1 | sha256sum | cut -d' ' -f1 > cmd/goalsim/testdata/quick.sha256
func TestQuickReportGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("report goldens are recorded on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/quick.sha256")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{"-experiment", "all", "-quick", "-json", "-seed", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Fatalf("quick report sha256 %s, want %s", got, strings.TrimSpace(string(want)))
	}
}
