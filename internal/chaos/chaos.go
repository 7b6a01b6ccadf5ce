// Package chaos is a seeded, budgeted fault-injection substrate for the
// distributed sweep fleet. It wraps the two seams every byte of fleet
// traffic crosses — the client's http.RoundTripper and the coordinator's
// net.Listener — and injects a bounded number of faults per run: dropped
// requests, added latency, duplicated deliveries, truncated responses,
// synthesized 503s, and (on the listener side) killed or delayed
// accepts.
//
// Reproducibility is the point. A run's entire fault schedule is
// materialized up front from an xrand split of the chaos seed: for each
// budgeted fault the generator draws which operation it hits (lease or
// submit), at which per-operation call sequence number it fires, and —
// for delay faults — how long it stalls. At runtime each request is
// classified into its operation and counted; a request whose (op, seq)
// coordinate carries a scheduled fault suffers it. Two runs with the
// same spec and seed therefore inject the identical fault set, even
// though concurrent workers interleave their calls differently: the
// schedule is a property of the coordinate space, not of arrival order.
// As long as every scheduled sequence number is actually reached (the
// harness keeps Horizon at or below the shard count, and a sweep issues
// at least one lease and one submit per shard), the fault log is a
// deterministic function of (spec, seed).
//
// Accept-class faults (adrop, adelay) follow the same scheduled-
// coordinate discipline over the listener's accept sequence, but the
// mapping from accepts to requests depends on the HTTP client's
// connection pooling, so the determinism guarantee is scoped to the
// request operations.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// Class names one fault family.
type Class string

// The fault classes. Request classes target the lease and submit
// operations (dup targets submit only: a duplicated lease would strand a
// grant until its TTL, which tests recovery the slow way); accept
// classes target the listener.
const (
	Drop        Class = "drop"   // request fails before delivery
	Delay       Class = "delay"  // request stalls, then proceeds
	Dup         Class = "dup"    // request delivered twice (submit only)
	Trunc       Class = "trunc"  // response body cut in half after delivery
	Err         Class = "err"    // synthesized 503, request not delivered
	AcceptDrop  Class = "adrop"  // accepted connection closed immediately
	AcceptDelay Class = "adelay" // accepted connection handed over late
)

// The operations a request can classify into. Only lease and submit are
// faultable: both sides retry them and duplicate delivery is idempotent.
// Renewals are deliberately exempt — their call counts depend on shard
// wall-clock, which would break the deterministic-log guarantee.
const (
	OpLease  = "lease"
	OpSubmit = "submit"
	OpAccept = "accept"
)

// Spec is a fault budget: how many faults of each class one run may
// inject. The zero Spec injects nothing.
type Spec struct {
	Drop  int // dropped requests
	Delay int // delayed requests
	Dup   int // duplicated submits
	Trunc int // truncated responses
	Err   int // injected 503s

	AcceptDrop  int // killed accepts
	AcceptDelay int // delayed accepts

	// DelayFor bounds each injected delay (the schedule draws a uniform
	// duration in (0, DelayFor]); 0 means 25ms.
	DelayFor time.Duration

	// Horizon is the per-operation scheduling window: every request
	// fault lands at a sequence number in [0, Horizon). Keep it at or
	// below the sweep's shard count so every scheduled fault actually
	// fires; 0 means 8.
	Horizon int
}

func (s Spec) delayFor() time.Duration {
	if s.DelayFor <= 0 {
		return 25 * time.Millisecond
	}
	return s.DelayFor
}

func (s Spec) horizon() int {
	if s.Horizon <= 0 {
		return 8
	}
	return s.Horizon
}

// String renders the spec in ParseSpec's format.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v int) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	add(string(Drop), s.Drop)
	if s.Delay > 0 {
		parts = append(parts, fmt.Sprintf("%s=%d:%s", Delay, s.Delay, s.delayFor()))
	}
	add(string(Dup), s.Dup)
	add(string(Trunc), s.Trunc)
	add(string(Err), s.Err)
	add(string(AcceptDrop), s.AcceptDrop)
	if s.AcceptDelay > 0 {
		parts = append(parts, fmt.Sprintf("%s=%d:%s", AcceptDelay, s.AcceptDelay, s.delayFor()))
	}
	if s.Horizon > 0 {
		parts = append(parts, fmt.Sprintf("horizon=%d", s.Horizon))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault budget, e.g.
// "drop=2,delay=3:20ms,dup=1,trunc=1,err=2,horizon=6". Delay classes
// accept an optional per-fault duration bound after a colon
// ("delay=3:20ms"); the last one given sets Spec.DelayFor for both
// delay and adelay. "horizon=N" sets the scheduling window.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("chaos: spec term %q is not key=value", part)
		}
		count, durStr, hasDur := strings.Cut(val, ":")
		n, err := strconv.Atoi(count)
		if err != nil || n < 0 {
			return spec, fmt.Errorf("chaos: spec term %q wants a non-negative count", part)
		}
		if hasDur {
			if key != string(Delay) && key != string(AcceptDelay) {
				return spec, fmt.Errorf("chaos: spec term %q: only delay classes take a :duration", part)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return spec, fmt.Errorf("chaos: spec term %q wants a positive duration after the colon", part)
			}
			spec.DelayFor = d
		}
		switch key {
		case string(Drop):
			spec.Drop = n
		case string(Delay):
			spec.Delay = n
		case string(Dup):
			spec.Dup = n
		case string(Trunc):
			spec.Trunc = n
		case string(Err):
			spec.Err = n
		case string(AcceptDrop):
			spec.AcceptDrop = n
		case string(AcceptDelay):
			spec.AcceptDelay = n
		case "horizon":
			spec.Horizon = n
		default:
			return spec, fmt.Errorf("chaos: unknown fault class %q (want drop, delay, dup, trunc, err, adrop, adelay or horizon)", key)
		}
	}
	return spec, nil
}

// Fault is one scheduled injection: class, target operation, the
// per-operation call sequence number it fires at, and — for delay
// classes — how long it stalls.
type Fault struct {
	Class Class
	Op    string
	Seq   int
	Stall time.Duration
}

func (f Fault) String() string {
	s := fmt.Sprintf("fault class=%s op=%s seq=%d", f.Class, f.Op, f.Seq)
	if f.Stall > 0 {
		s += fmt.Sprintf(" stall=%s", f.Stall)
	}
	return s
}

// FormatLog renders a fault list one line per fault — the canonical
// fault-log format the determinism pin compares byte-for-byte.
func FormatLog(faults []Fault) string {
	var b strings.Builder
	for _, f := range faults {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

var mFaults = obs.Default().CounterVec("goalsweep_chaos_faults_injected_total",
	"Faults the chaos injector actually fired, by class.", "class")

type opSeq struct {
	op  string
	seq int
}

// Injector holds one run's materialized fault schedule and fires it as
// traffic reaches the scheduled coordinates. One injector is shared by
// every wrapped transport and listener of a run, so the budgets and the
// sequence space are fleet-wide. Safe for concurrent use.
type Injector struct {
	sched map[opSeq]Fault // immutable after New

	// Events, when non-nil, receives one structured event per injected
	// fault. Set before traffic starts; nil means silent.
	Events *obs.Logger

	mu     sync.Mutex
	counts map[string]int
	fired  []Fault
}

// New materializes the run's fault schedule: every budgeted fault is
// assigned its (op, seq) coordinate and stall duration by draws from an
// xrand split of the chaos seed. Identical (spec, seed) pairs always
// produce identical schedules. It errors when a budget cannot fit the
// horizon (more faults targeting an operation than it has slots).
func New(spec Spec, seed uint64) (*Injector, error) {
	in := &Injector{
		sched:  make(map[opSeq]Fault),
		counts: make(map[string]int),
	}
	rng := xrand.New(seed).Split()
	horizon := spec.horizon()
	// Fixed class order keeps the schedule a pure function of the draws.
	classes := []struct {
		class  Class
		budget int
		ops    []string
	}{
		{Drop, spec.Drop, []string{OpLease, OpSubmit}},
		{Delay, spec.Delay, []string{OpLease, OpSubmit}},
		{Dup, spec.Dup, []string{OpSubmit}},
		{Trunc, spec.Trunc, []string{OpLease, OpSubmit}},
		{Err, spec.Err, []string{OpLease, OpSubmit}},
		{AcceptDrop, spec.AcceptDrop, []string{OpAccept}},
		{AcceptDelay, spec.AcceptDelay, []string{OpAccept}},
	}
	for _, cl := range classes {
		for i := 0; i < cl.budget; i++ {
			f := Fault{Class: cl.class}
			if cl.class == Delay || cl.class == AcceptDelay {
				f.Stall = time.Duration(1 + rng.Intn(int(spec.delayFor())))
			}
			op := cl.ops[rng.Intn(len(cl.ops))]
			seq := rng.Intn(horizon)
			placed := false
			// Deterministic collision resolution: linear-probe the drawn
			// operation's window, then the class's other operations.
			for o := 0; o < len(cl.ops) && !placed; o++ {
				tryOp := cl.ops[(indexOf(cl.ops, op)+o)%len(cl.ops)]
				for p := 0; p < horizon; p++ {
					k := opSeq{tryOp, (seq + p) % horizon}
					if _, taken := in.sched[k]; !taken {
						f.Op, f.Seq = k.op, k.seq
						in.sched[k] = f
						placed = true
						break
					}
				}
			}
			if !placed {
				return nil, fmt.Errorf("chaos: budget %s does not fit: every slot of %v within horizon %d is taken (lower the budgets or raise horizon)",
					cl.class, cl.ops, horizon)
			}
		}
	}
	return in, nil
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return 0
}

// Log returns the faults fired so far, in canonical (op, seq) order.
// After a run in which every scheduled coordinate was reached it holds
// every scheduled fault — the reproducible fault event log.
func (in *Injector) Log() []Fault {
	in.mu.Lock()
	faults := append([]Fault(nil), in.fired...)
	in.mu.Unlock()
	sortFaults(faults)
	return faults
}

func sortFaults(faults []Fault) {
	sort.Slice(faults, func(i, j int) bool {
		if faults[i].Op != faults[j].Op {
			return faults[i].Op < faults[j].Op
		}
		return faults[i].Seq < faults[j].Seq
	})
}

// next claims the operation's next sequence number and returns the fault
// scheduled there, if any.
func (in *Injector) next(op string) (Fault, bool) {
	in.mu.Lock()
	seq := in.counts[op]
	in.counts[op] = seq + 1
	in.mu.Unlock()
	f, ok := in.sched[opSeq{op, seq}]
	return f, ok
}

// record marks one scheduled fault as fired.
func (in *Injector) record(f Fault) {
	in.mu.Lock()
	in.fired = append(in.fired, f)
	in.mu.Unlock()
	mFaults.With(string(f.Class)).Inc()
	in.Events.Event(obs.LevelWarn, "chaos.fault",
		obs.String("class", string(f.Class)),
		obs.String("op", f.Op),
		obs.Int("seq", f.Seq),
		obs.Dur("stall", f.Stall))
}

// classifyOp maps a request to its fault operation; "" means exempt
// (renewals, event streams, status, sweep admission all pass through).
func classifyOp(r *http.Request) string {
	path := r.URL.Path
	switch {
	case strings.HasSuffix(path, "/result"):
		return OpSubmit
	case strings.HasSuffix(path, "/leases"):
		return OpLease
	}
	return ""
}

// Transport wraps a RoundTripper with the injector's request-class
// faults. base nil means http.DefaultTransport.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

// Client wraps an *http.Client so its requests cross the injector;
// base nil means a fresh client over http.DefaultTransport. The
// original client is not modified.
func (in *Injector) Client(base *http.Client) *http.Client {
	var wrapped http.Client
	if base != nil {
		wrapped = *base
	}
	wrapped.Transport = in.Transport(wrapped.Transport)
	return &wrapped
}

type transport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := classifyOp(req)
	if op == "" {
		return t.base.RoundTrip(req)
	}
	f, ok := t.in.next(op)
	if !ok {
		return t.base.RoundTrip(req)
	}
	t.in.record(f)
	switch f.Class {
	case Delay:
		select {
		case <-time.After(f.Stall):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case Drop:
		// The request never reaches the wire; the caller sees a transport
		// failure and retries.
		return nil, fmt.Errorf("chaos: injected drop (%s #%d)", f.Op, f.Seq)
	case Err:
		// Synthesized overload answer; the request is not delivered.
		// Retry-After 0 exercises the client's hint parsing without
		// stalling the retry loop.
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Retry-After": []string{"0"}},
			Body:       io.NopCloser(strings.NewReader("chaos: injected 503")),
			Request:    req,
		}, nil
	case Trunc:
		// The request is delivered and processed; the caller just never
		// sees a whole response — a retry against an idempotent endpoint
		// must converge.
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := body[:len(body)/2]
		resp.Body = io.NopCloser(bytes.NewReader(cut))
		resp.ContentLength = int64(len(cut))
		resp.Header.Set("Content-Length", strconv.Itoa(len(cut)))
		return resp, nil
	case Dup:
		// Deliver a duplicate first, discard its answer, then let the
		// original through — the network re-delivered a submit, and
		// first-accept idempotency must absorb it.
		if req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				clone := req.Clone(req.Context())
				clone.Body = body
				if resp, err := t.base.RoundTrip(clone); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
		return t.base.RoundTrip(req)
	}
	return t.base.RoundTrip(req)
}

// Listener wraps a net.Listener with the injector's accept-class faults.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return conn, err
		}
		f, ok := l.in.next(OpAccept)
		if !ok {
			return conn, nil
		}
		l.in.record(f)
		switch f.Class {
		case AcceptDrop:
			// The peer sees its connection die before a byte moves —
			// a transport error on whatever call was in flight.
			conn.Close()
			continue
		case AcceptDelay:
			time.Sleep(f.Stall)
			return conn, nil
		default:
			return conn, nil
		}
	}
}
