package main

import (
	"io"
	"os"
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

// TestServeWorkByteIdentical is the CLI acceptance criterion for the
// distributed backend: goalsweep serve plus two concurrent goalsweep work
// processes produce a merged report byte-identical to a plain local run,
// with one of the workers warming a result cache on the side. The sweep
// is the default matrix, not the 12-scenario quick one: a batch
// coordinator shuts down once every worker it has seen is drained, so
// the sweep must outlast the second worker's start or that worker finds
// no listener.
func TestServeWorkByteIdentical(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "default", "-json")
	dir := t.TempDir()
	outPath := filepath.Join(dir, "dist.json")

	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var b strings.Builder
		serveDone <- run([]string{"serve", "-builtin", "default", "-shards", "3",
			"-listen", "127.0.0.1:0", "-json", "-out", outPath}, &b, serveStderr)
	}()
	url := waitForURL(t, serveStderr)

	var wg sync.WaitGroup
	workErrs := make([]error, 2)
	for i := range workErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"work", "-coordinator", url, "-poll", "10ms"}
			if i == 1 {
				args = append(args, "-cache", filepath.Join(dir, "store"))
			}
			var b strings.Builder
			workErrs[i] = run(args, &b, io.Discard)
		}()
	}
	wg.Wait()
	for i, err := range workErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != full {
		t.Fatal("distributed serve/work report differs from plain local -json run")
	}
	if !strings.Contains(serveStderr.String(), "3 shards from 2 workers") {
		t.Fatalf("serve accounting missing:\n%s", serveStderr.String())
	}
}

func TestServeWorkFlagValidation(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := run([]string{"serve", "-builtin", "quick", "-json", "-csv"}, &b, io.Discard); err == nil {
		t.Fatal("serve -json -csv accepted together")
	}
	if err := run([]string{"serve", "-builtin", "quick", "-shards", "0"}, &b, io.Discard); err == nil {
		t.Fatal("serve -shards 0 accepted")
	}
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
