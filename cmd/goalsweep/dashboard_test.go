package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
)

// getBody fetches a URL and returns status, content type, and body.
func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServeDashboardEndpoints drives goalsweep serve end to end with one
// submitted quick job: while the job waits for workers, the root path
// serves the embedded dashboard page and /metrics serves the Prometheus
// exposition; the protocol endpoints keep working underneath, and -v
// surfaces the structured lease lifecycle on stderr.
func TestServeDashboardEndpoints(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- runCtx(ctx, []string{"serve", "-listen", "127.0.0.1:0", "-v"}, io.Discard, serveStderr)
	}()
	url := waitForURL(t, serveStderr)
	var out strings.Builder
	if err := run([]string{"submit", "-coordinator", url, "-builtin", "quick", "-shards", "2"}, &out, io.Discard); err != nil {
		t.Fatalf("submit: %v", err)
	}
	job := strings.TrimSpace(out.String())

	// The dashboard page at the exact root.
	status, ctype, body := getBody(t, url+"/")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("GET / = %d %q, want 200 text/html", status, ctype)
	}
	if !strings.Contains(body, "goalsweep") || !strings.Contains(body, `fetch("/status")`) {
		t.Fatal("dashboard page missing expected content")
	}

	// The Prometheus exposition, with coordinator families present even
	// before any worker shows up.
	status, ctype, body = getBody(t, url+"/metrics")
	if status != http.StatusOK || ctype != obs.PromContentType {
		t.Fatalf("GET /metrics = %d %q, want 200 %q", status, ctype, obs.PromContentType)
	}
	for _, fam := range []string{
		"# TYPE goalsweep_coord_leases_granted_total counter",
		"# TYPE goalsweep_engine_rounds_total counter",
		"# TYPE goalsweep_cache_hits_total counter",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}

	// The protocol endpoints still work underneath the dashboard mux:
	// /status lists the submitted job.
	status, _, body = getBody(t, url+"/status")
	var st dist.StatusResponse
	if status != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil ||
		len(st.Jobs) != 1 || st.Jobs[0].ID != job || st.Jobs[0].Shards != 2 {
		t.Fatalf("GET /status through dashboard mux = %d %q", status, body)
	}

	var b strings.Builder
	if err := run([]string{"work", "-coordinator", url, "-poll", "10ms", "-exit-when-idle"}, &b, io.Discard); err != nil {
		t.Fatalf("work: %v", err)
	}
	// The one worker's accounting: both shards, and the job complete.
	status, _, body = getBody(t, url+"/status")
	st = dist.StatusResponse{}
	if status != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil || !st.Complete ||
		len(st.WorkerStates) != 1 || st.WorkerStates[0].Submitted != 2 {
		t.Fatalf("GET /status after the worker exited = %d %q, want the job complete and 2 shards from 1 worker", status, body)
	}
	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// -v surfaced the structured lease lifecycle on serve's stderr.
	stderr := serveStderr.String()
	for _, event := range []string{"event=sweep.submit", "event=lease.grant", "event=submit.accept", "event=sweep.complete"} {
		if !strings.Contains(stderr, event) {
			t.Errorf("serve -v stderr missing %q:\n%s", event, stderr)
		}
	}
}
