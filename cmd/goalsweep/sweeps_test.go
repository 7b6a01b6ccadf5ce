package main

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestServiceSubmitWatch is the CLI acceptance criterion for the sweep
// service: a long-lived `serve -service` coordinator takes two
// submitted jobs, a fair-share worker drains both, and `watch` renders
// each job's report byte-identical to a plain local run of the same
// spec. Resubmission is idempotent and SIGTERM-style cancellation shuts
// the service down cleanly.
func TestServiceSubmitWatch(t *testing.T) {
	t.Parallel()

	full1 := runSweep(t, "-builtin", "quick", "-json")
	full2 := runSweep(t, "-builtin", "quick", "-seeds", "2", "-json")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var b strings.Builder
		serveDone <- runCtx(ctx, []string{"serve", "-service",
			"-state", filepath.Join(t.TempDir(), "state"),
			"-listen", "127.0.0.1:0"}, &b, serveStderr)
	}()
	url := waitForURL(t, serveStderr)

	submit := func(args ...string) (jobID, stderr string) {
		t.Helper()
		var out strings.Builder
		errBuf := &strings.Builder{}
		if err := run(append([]string{"submit", "-coordinator", url}, args...), &out, errBuf); err != nil {
			t.Fatalf("submit %v: %v\n%s", args, err, errBuf.String())
		}
		return strings.TrimSpace(out.String()), errBuf.String()
	}
	job1, msg1 := submit("-builtin", "quick", "-shards", "2")
	job2, _ := submit("-builtin", "quick", "-seeds", "2", "-shards", "3")
	if job1 == "" || job2 == "" || job1 == job2 {
		t.Fatalf("submit printed job IDs %q and %q, want two distinct IDs", job1, job2)
	}
	if !strings.Contains(msg1, "submitted") {
		t.Fatalf("first submit not announced as new:\n%s", msg1)
	}
	again, msgAgain := submit("-builtin", "quick", "-shards", "2")
	if again != job1 || !strings.Contains(msgAgain, "already queued") {
		t.Fatalf("resubmission printed %q (%s), want idempotent %q", again, msgAgain, job1)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var workErr error
	go func() {
		defer wg.Done()
		var b strings.Builder
		workErr = run([]string{"work", "-coordinator", url, "-poll", "10ms", "-exit-when-idle"}, &b, io.Discard)
	}()

	watch := func(jobID string) string {
		t.Helper()
		var out strings.Builder
		if err := run([]string{"watch", "-coordinator", url, "-json", jobID}, &out, io.Discard); err != nil {
			t.Fatalf("watch %s: %v", jobID, err)
		}
		return out.String()
	}
	if got := watch(job1); got != full1 {
		t.Fatal("watched job 1 report differs from plain local -json run")
	}
	if got := watch(job2); got != full2 {
		t.Fatal("watched job 2 report differs from plain local -seeds 2 -json run")
	}
	wg.Wait()
	if workErr != nil {
		t.Fatalf("work: %v", workErr)
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve -service did not shut down cleanly: %v", err)
	}
	if !strings.Contains(serveStderr.String(), "sweep service at ") {
		t.Fatalf("service handshake line missing:\n%s", serveStderr.String())
	}
}

func TestServiceAndSubmitFlagValidation(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := run([]string{"serve", "-listen", "127.0.0.1:0", "-chaos", "nope=1"}, &b, io.Discard); err == nil {
		t.Fatal("serve with a malformed -chaos schedule accepted")
	}
	if err := run([]string{"submit", "-builtin", "quick"}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-coordinator") {
		t.Fatalf("submit without -coordinator accepted: %v", err)
	}
	if err := run([]string{"watch", "-coordinator", "http://localhost:1"}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "job ID") {
		t.Fatalf("watch without a job ID accepted: %v", err)
	}
	if err := run([]string{"watch", "-json", "-csv", "-coordinator", "http://localhost:1", "j"}, &b, io.Discard); err == nil {
		t.Fatal("watch -json -csv accepted together")
	}
}
