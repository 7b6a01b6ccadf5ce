package chaos

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	t.Parallel()
	spec, err := ParseSpec("drop=2,delay=3:20ms,dup=1,trunc=1,err=2,adrop=1,adelay=1,horizon=6")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Drop: 2, Delay: 3, Dup: 1, Trunc: 1, Err: 2, AcceptDrop: 1, AcceptDelay: 1,
		DelayFor: 20 * time.Millisecond, Horizon: 6}
	if spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", spec, want)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if again != spec {
		t.Fatalf("String round-trip = %+v, want %+v", again, spec)
	}
}

func TestParseSpecRejects(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{"drop", "drop=x", "drop=-1", "bogus=1", "drop=1:5ms", "delay=1:nope"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
	if spec, err := ParseSpec(""); err != nil || spec != (Spec{}) {
		t.Fatalf("empty spec = (%+v, %v), want zero budget", spec, err)
	}
}

// schedule returns every fault in's schedule holds, in canonical (op, seq)
// order: what its log will hold once every coordinate has been reached.
func schedule(in *Injector) []Fault {
	faults := make([]Fault, 0, len(in.sched))
	for _, f := range in.sched {
		faults = append(faults, f)
	}
	sortFaults(faults)
	return faults
}

// TestScheduleDeterministic: the same (spec, seed) always materializes
// the identical schedule; a different seed materializes a different one.
func TestScheduleDeterministic(t *testing.T) {
	t.Parallel()
	spec := Spec{Drop: 2, Delay: 2, Dup: 1, Trunc: 1, Err: 2, DelayFor: 10 * time.Millisecond, Horizon: 8}
	a, err := New(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if la, lb := FormatLog(schedule(a)), FormatLog(schedule(b)); la != lb {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", la, lb)
	}
	c, err := New(spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	if FormatLog(schedule(a)) == FormatLog(schedule(c)) {
		t.Fatal("different seeds produced the identical schedule (suspicious)")
	}
	if got, want := len(schedule(a)), 8; got != want {
		t.Fatalf("scheduled %d faults, want %d", got, want)
	}
}

// TestScheduleOverflow: budgets that cannot fit the horizon are refused
// at construction, not silently dropped.
func TestScheduleOverflow(t *testing.T) {
	t.Parallel()
	if _, err := New(Spec{Dup: 3, Horizon: 2}, 1); err == nil {
		t.Fatal("3 submit-only faults in a horizon of 2 accepted, want error")
	}
}

// faultAt builds an injector whose schedule is exactly one fault at the
// given coordinate, by rejection-sampling the seed. Tests use it to aim
// a single fault class at a single call.
func faultAt(t *testing.T, class Class, op string, seq int, delayFor time.Duration) *Injector {
	t.Helper()
	spec := Spec{Horizon: seq + 1, DelayFor: delayFor}
	switch class {
	case Drop:
		spec.Drop = 1
	case Delay:
		spec.Delay = 1
	case Dup:
		spec.Dup = 1
	case Trunc:
		spec.Trunc = 1
	case Err:
		spec.Err = 1
	case AcceptDrop:
		spec.AcceptDrop = 1
	case AcceptDelay:
		spec.AcceptDelay = 1
	}
	for seed := uint64(1); seed < 10_000; seed++ {
		in, err := New(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched := schedule(in)
		if len(sched) == 1 && sched[0].Op == op && sched[0].Seq == seq {
			return in
		}
	}
	t.Fatalf("no seed under 10000 schedules %s at (%s, %d)", class, op, seq)
	return nil
}

// chaosClient wraps a handler behind an injector-wrapped loopback-style
// transport.
func chaosClient(in *Injector, h http.Handler) *http.Client {
	return in.Client(&http.Client{Transport: handlerTransport{h}})
}

// handlerTransport serves requests straight into a handler, in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func countingHandler(calls *atomic.Int64, body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, body)
	})
}

func TestTransportDrop(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	in := faultAt(t, Drop, OpLease, 0, 0)
	cl := chaosClient(in, countingHandler(&calls, "ok"))
	if _, err := cl.Post("http://chaos/v1/leases", "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("dropped request returned no error")
	}
	if calls.Load() != 0 {
		t.Fatalf("dropped request reached the handler %d times", calls.Load())
	}
	// The next lease call passes through: the budget is spent.
	resp, err := cl.Post("http://chaos/v1/leases", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("second call reached the handler %d times, want 1", calls.Load())
	}
	if log := in.Log(); len(log) != 1 || log[0].Class != Drop {
		t.Fatalf("fault log = %v, want one drop", log)
	}
}

func TestTransportErr503(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	in := faultAt(t, Err, OpSubmit, 0, 0)
	cl := chaosClient(in, countingHandler(&calls, "ok"))
	resp, err := cl.Post("http://chaos/v1/leases/lease-1/result", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("injected 503 carries no Retry-After")
	}
	if calls.Load() != 0 {
		t.Fatalf("injected 503 still delivered the request %d times", calls.Load())
	}
}

func TestTransportTrunc(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	const body = `{"protocol":1,"status":"wait"}`
	in := faultAt(t, Trunc, OpLease, 0, 0)
	cl := chaosClient(in, countingHandler(&calls, body))
	resp, err := cl.Post("http://chaos/v1/leases", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("truncated request delivered %d times, want 1 (delivery then corruption)", calls.Load())
	}
	if want := body[:len(body)/2]; string(got) != want {
		t.Fatalf("truncated body = %q, want %q", got, want)
	}
}

func TestTransportDupDeliversTwice(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	in := faultAt(t, Dup, OpSubmit, 0, 0)
	cl := chaosClient(in, countingHandler(&calls, "ok"))
	resp, err := cl.Post("http://chaos/v1/leases/lease-1/result", "application/json", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 2 {
		t.Fatalf("duplicated submit delivered %d times, want 2", calls.Load())
	}
}

func TestTransportDelayStalls(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	in := faultAt(t, Delay, OpLease, 0, 30*time.Millisecond)
	stall := schedule(in)[0].Stall
	cl := chaosClient(in, countingHandler(&calls, "ok"))
	start := time.Now()
	resp, err := cl.Post("http://chaos/v1/leases", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("delayed call returned in %v, want at least the scheduled stall %v", elapsed, stall)
	}
	if calls.Load() != 1 {
		t.Fatalf("delayed request delivered %d times, want 1", calls.Load())
	}
}

// TestTransportExemptOps: only lease and submit calls burn sequence
// numbers; renewals and event streams never suffer request faults.
func TestTransportExemptOps(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	in := faultAt(t, Drop, OpLease, 0, 0)
	cl := chaosClient(in, countingHandler(&calls, "ok"))
	for _, path := range []string{"/v1/leases/lease-1/renew", "/v1/sweeps/sw-1/events", "/status", "/v1/sweeps"} {
		resp, err := cl.Post("http://chaos"+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
	}
	if len(in.Log()) != 0 {
		t.Fatalf("exempt paths fired faults: %v", in.Log())
	}
}

// TestListenerAcceptDrop: an adrop fault kills the accepted connection
// (the dialer sees it die) and the listener keeps accepting.
func TestListenerAcceptDrop(t *testing.T) {
	t.Parallel()
	in := faultAt(t, AcceptDrop, OpAccept, 0, 0)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener(base)
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	// First dial is eaten by the adrop fault: reading from it reports a
	// closed connection. Second dial reaches Accept.
	c1, err := net.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := net.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	select {
	case conn := <-accepted:
		conn.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("listener never surfaced the second connection")
	}
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("read from the dropped connection succeeded")
	}
	if log := in.Log(); len(log) != 1 || log[0].Class != AcceptDrop {
		t.Fatalf("fault log = %v, want one adrop", log)
	}
}

// TestDupPreservesBody: the duplicate and the original both carry the
// full request body.
func TestDupPreservesBody(t *testing.T) {
	t.Parallel()
	var bodies [][]byte
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, b)
		io.WriteString(w, "ok")
	})
	in := faultAt(t, Dup, OpSubmit, 0, 0)
	cl := chaosClient(in, h)
	payload := `{"shard":"1/2"}`
	resp, err := cl.Post("http://chaos/v1/leases/lease-1/result", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(bodies) != 2 || !bytes.Equal(bodies[0], bodies[1]) || string(bodies[0]) != payload {
		t.Fatalf("duplicate deliveries carried %q, want two copies of %q", bodies, payload)
	}
}
