package main

import (
	"context"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a concurrency-safe stderr sink for the serve goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingURL = regexp.MustCompile(`at (http://[^\s]+)`)

// waitForURL polls the coordinator's stderr for the serving line and
// returns the resolved base URL.
func waitForURL(t *testing.T, stderr *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := servingURL.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("coordinator never printed its serving line:\n%s", stderr.String())
	return ""
}

// TestServeCommandLine pins the one way to start the sweep service.
// The repository's benchmark starts it as `serve -service -state DIR
// -listen 127.0.0.1:0`; -service is accepted and has no effect, so plain
// `serve` runs the same service. Both print the handshake line and
// return nil once their context is cancelled. A batch sweep flag and a
// chaostest verb are refused by name.
func TestServeCommandLine(t *testing.T) {
	t.Parallel()

	for _, args := range [][]string{
		{"serve", "-service", "-state", filepath.Join(t.TempDir(), "state"), "-listen", "127.0.0.1:0"},
		{"serve", "-listen", "127.0.0.1:0"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stderr := &syncBuffer{}
		done := make(chan error, 1)
		go func() { done <- runCtx(ctx, args, io.Discard, stderr) }()
		waitForURL(t, stderr)
		if !strings.Contains(stderr.String(), "goalsweep: sweep service at http://") {
			t.Errorf("goalsweep %v: no service handshake line:\n%s", args, stderr.String())
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("goalsweep %v did not shut down cleanly: %v", args, err)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-builtin", "quick"}, "-builtin"},
		{[]string{"chaostest"}, "chaostest"},
	} {
		if err := run(tc.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("goalsweep %v: err = %v, want a refusal naming %s", tc.args, err, tc.want)
		}
	}
}

func TestServeWorkFlagValidation(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := run([]string{"work"}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-coordinator") {
		t.Fatalf("work without -coordinator accepted: %v", err)
	}
}

// TestMergeErrorsNameOffendingFile pins the fix for merge diagnostics:
// mismatch errors must name the input file that conflicts, not just print
// fingerprints.
func TestMergeErrorsNameOffendingFile(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.json")
	s2 := filepath.Join(dir, "s2-foreign.json")
	dup := filepath.Join(dir, "s1-again.json")
	runSweep(t, "-builtin", "quick", "-shard", "1/2", "-json", "-out", s1)
	runSweep(t, "-builtin", "quick", "-seeds", "2", "-shard", "2/2", "-json", "-out", s2)
	runSweep(t, "-builtin", "quick", "-shard", "1/2", "-json", "-out", dup)

	var b strings.Builder
	err := run([]string{"merge", s1, s2}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), s2) || !strings.Contains(err.Error(), s1) ||
		!strings.Contains(err.Error(), "different sweeps") {
		t.Fatalf("fingerprint mismatch does not name both files: %v", err)
	}
	err = run([]string{"merge", s1, dup}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), dup) || !strings.Contains(err.Error(), s1) ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard does not name both files: %v", err)
	}
}
