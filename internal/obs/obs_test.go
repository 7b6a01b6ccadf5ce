package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // le=1: {0.5, 1}; le=5: {3}; le=10: {7}; +Inf: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 111.5 {
		t.Errorf("sum = %v, want 111.5", s.Sum)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("app_job_seconds", "Per-job latency.", []float64{1, 10}, "job")
	if v.With("a") != v.With("a") {
		t.Fatal("same label returned a different child histogram")
	}
	v.With("a").Observe(0.5)
	v.With("a").Observe(5)
	v.With("b").Observe(100)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE app_job_seconds histogram",
		`app_job_seconds_bucket{job="a",le="1"} 1`,
		`app_job_seconds_bucket{job="a",le="+Inf"} 2`,
		`app_job_seconds_sum{job="a"} 5.5`,
		`app_job_seconds_count{job="a"} 2`,
		`app_job_seconds_bucket{job="b",le="10"} 0`,
		`app_job_seconds_count{job="b"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lives", "a-b", "a b", "a{b}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_things_total", "Things done.")
	c.Add(7)
	g := r.Gauge("app_temp", "Current temperature.")
	g.Set(36.6)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	v := r.CounterVec("app_requests_total", "Requests by verb.", "verb")
	v.With("get").Add(3)
	v.With("put").Inc()
	gv := r.GaugeVec("app_worker_busy", "Busy workers.", "worker")
	gv.With(`w"1\x`).Set(1)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# HELP app_things_total Things done.\n# TYPE app_things_total counter\napp_things_total 7\n",
		"# TYPE app_temp gauge\napp_temp 36.6\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 2.55\napp_latency_seconds_count 3\n",
		"app_requests_total{verb=\"get\"} 3\napp_requests_total{verb=\"put\"} 1\n",
		`app_worker_busy{worker="w\"1\\x"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	// Families must appear in sorted order for deterministic scrapes.
	if strings.Index(got, "app_latency_seconds") > strings.Index(got, "app_requests_total") {
		t.Error("families not sorted by name")
	}
}

func TestWritePromConcurrentWithObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "", nil)
	c := r.Counter("x_total", "")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				h.Observe(0.01)
				c.Inc()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_seconds", "", nil)
	vec := r.CounterVec("hot_by_goal_total", "", "goal")
	child := vec.With("treasure") // resolved once, held across the loop
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		h.Observe(0.017)
		child.Inc()
	})
	if allocs != 0 {
		t.Fatalf("hot-path metric ops allocate %.1f/op, want 0", allocs)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Event(LevelError, "should.not.panic", String("k", "v"))
	if NewLogger(nil, LevelInfo) != nil {
		t.Fatal("NewLogger(nil) should return nil")
	}
}

func TestLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 123e6, time.UTC) }
	l.Event(LevelDebug, "dropped.below.min")
	l.Event(LevelInfo, "lease.grant",
		String("lease", "lease-1"),
		String("spec", "quick sweep"),
		Int("shard", 2),
		Int64("trials", 96),
		Dur("wait", 250*time.Millisecond),
	)
	got := sb.String()
	want := `ts=2026-08-08T12:00:00.123Z level=info event=lease.grant lease=lease-1 spec="quick sweep" shard=2 trials=96 wait=0.25s` + "\n"
	if got != want {
		t.Fatalf("log line:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerLevels(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelWarn)
	l.Event(LevelInfo, "quiet")
	l.Event(LevelError, "loud")
	out := sb.String()
	if strings.Contains(out, "quiet") || !strings.Contains(out, "level=error event=loud") {
		t.Fatalf("level filtering wrong: %q", out)
	}
}
