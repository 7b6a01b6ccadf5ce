package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

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

// TestServeDashboardEndpoints drives goalsweep serve -dashboard end to
// end: while the coordinator waits for workers, the root path serves the
// embedded page and /metrics serves the Prometheus exposition; the
// protocol endpoints keep working underneath, and -v surfaces the
// structured lease lifecycle on stderr.
func TestServeDashboardEndpoints(t *testing.T) {
	t.Parallel()

	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var b strings.Builder
		serveDone <- run([]string{"serve", "-builtin", "quick", "-shards", "2",
			"-listen", "127.0.0.1:0", "-dashboard", "-v",
			"-out", os.DevNull}, &b, serveStderr)
	}()
	url := waitForURL(t, serveStderr)

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

	// The protocol endpoints still work underneath the dashboard mux,
	// and /status carries the multi-job array alongside the legacy flat
	// mirror fields.
	status, _, body = getBody(t, url+"/status")
	if status != http.StatusOK || !strings.Contains(body, `"shards":2`) ||
		!strings.Contains(body, `"jobs":[`) {
		t.Fatalf("GET /status through dashboard mux = %d %q", status, body)
	}

	var b strings.Builder
	if err := run([]string{"work", "-coordinator", url, "-poll", "10ms"}, &b, io.Discard); err != nil {
		t.Fatalf("work: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// -v surfaced the structured lease lifecycle on serve's stderr.
	stderr := serveStderr.String()
	for _, event := range []string{"event=lease.grant", "event=submit.accept", "event=sweep.complete"} {
		if !strings.Contains(stderr, event) {
			t.Errorf("serve -v stderr missing %q:\n%s", event, stderr)
		}
	}
	if !strings.Contains(stderr, "2 shards from 1 workers") {
		t.Fatalf("serve accounting missing:\n%s", stderr)
	}
}
