package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

// DefaultCallTimeout bounds each non-streaming client call when the
// caller's context carries no deadline of its own. Event streams are
// exempt: they live as long as the job. Every call it covers is either
// idempotent or retried by a classifier that treats a deadline as a
// transport failure, so a timeout can only delay work, never lose it.
const DefaultCallTimeout = 30 * time.Second

// Client speaks the coordinator's /v1 resource API. Both the Worker and
// the `goalsweep submit`/`watch` CLI verbs are built on it, and because
// it takes any *http.Client, hermetic tests run the same code paths
// against an in-process coordinator.
type Client struct {
	// BaseURL is the coordinator's base URL (http://host:port).
	BaseURL string
	// HTTP issues the requests; nil means http.DefaultClient.
	HTTP *http.Client
}

// NewClient builds a client for the coordinator at base; hc nil means
// http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/"), HTTP: hc}
}

func (cl *Client) http() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// TransportError marks a failure to reach the coordinator, or to read a
// whole answer from it (a truncated response is indistinguishable from a
// connection cut mid-reply). Callers use it to decide what is retryable:
// a connection refused during coordinator startup is, a 409 fingerprint
// conflict is not.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// RefusedError is a coordinator that answered — with a non-2xx status.
// Code tells the retry classifier whether the refusal is a permanent
// verdict (4xx protocol violations) or a transient condition (429
// overload shed, 5xx), and RetryAfter carries the coordinator's parsed
// Retry-After hint when it sent one (0 otherwise).
type RefusedError struct {
	Op         string
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("dist: %s: coordinator answered %d: %s", e.Op, e.Code, e.Msg)
}

// Retryable reports whether an error from a Client call is worth
// retrying: transport failures (unreachable coordinator, cut or
// truncated responses) and transient refusals (429 overload sheds, 502/
// 503/504) are; everything else — fingerprint conflicts, unknown leases,
// protocol mismatches — is a verdict that a retry cannot change.
func Retryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var re *RefusedError
	if errors.As(err, &re) {
		switch re.Code {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
	}
	return false
}

// RetryAfterHint extracts the coordinator's Retry-After wish from an
// error, 0 when it carried none. Retry loops use it as a floor under
// their own backoff.
func RetryAfterHint(err error) time.Duration {
	var re *RefusedError
	if errors.As(err, &re) {
		return re.RetryAfter
	}
	return 0
}

// callCtx applies DefaultCallTimeout; the caller's own deadline always
// wins.
func (cl *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, DefaultCallTimeout)
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil), or, when out is a *[]byte, reads the response into it
// whole. Non-2xx responses become *RefusedError carrying the
// coordinator's message; transport failures and short reads come back as
// *TransportError.
func (cl *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	ctx, cancel := cl.callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, cl.BaseURL+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return &TransportError{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return httpError(method+" "+path, resp)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		if *raw, err = io.ReadAll(resp.Body); err != nil {
			return &TransportError{Err: fmt.Errorf("dist: decode %s response: %w", path, err)}
		}
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A response that stops mid-JSON is a cut or truncated wire, not
		// a coordinator verdict: classify it retryable.
		return &TransportError{Err: fmt.Errorf("dist: decode %s response: %w", path, err)}
	}
	return nil
}

// CreateSweep submits one sweep (POST /v1/sweeps). The response carries
// the job — freshly created, or the already-queued one when an
// identical sweep is in the queue.
func (cl *Client) CreateSweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	req.Protocol = ProtocolVersion
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp SweepResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/sweeps", bytes.NewReader(body), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Lease asks for work: scoped to one job when job is non-empty (POST
// /v1/sweeps/{job}/leases), fair-share across every active job otherwise
// (POST /v1/leases). known, when non-nil, is a plan an earlier Lease
// returned: an answer whose plan bytes equal the ones known was decoded
// from carries known itself, and only a plan with other bytes is decoded.
// Every lease of a job carries the same plan, which for a large space is
// tens of kilobytes, so Lease reads the answer whole and matches the
// known plan without scanning it (see cutPlan); any other answer is
// decoded whole.
func (cl *Client) Lease(ctx context.Context, job string, req LeaseRequest, known *Plan) (*LeaseResponse, error) {
	req.Protocol = ProtocolVersion
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	path := "/v1/leases"
	if job != "" {
		path = "/v1/sweeps/" + job + "/leases"
	}
	var answer []byte
	if err := cl.do(ctx, http.MethodPost, path, bytes.NewReader(body), &answer); err != nil {
		return nil, err
	}
	lease, err := decodeLease(answer, known)
	if err != nil {
		// A response that stops mid-JSON is a cut or truncated wire, not
		// a coordinator verdict: classify it retryable.
		return nil, &TransportError{Err: fmt.Errorf("dist: decode %s response: %w", path, err)}
	}
	if lease.Protocol != ProtocolVersion {
		return nil, fmt.Errorf("dist: coordinator speaks protocol %d, want %d", lease.Protocol, ProtocolVersion)
	}
	return lease, nil
}

// leaseWire is a lease answer with its plan left as bytes. It names an
// unnamed struct type, which decode errors spell out.
type leaseWire = struct {
	LeaseResponse
	Plan json.RawMessage `json:"plan,omitempty"` // shadows LeaseResponse.Plan
}

// decodeLease decodes a lease answer as json.Decoder reads its first
// value. When the answer's plan member holds known's bytes, the answer is
// decoded with that member cut out and carries known; otherwise it is
// decoded whole, and its plan only when the bytes are not known's.
func decodeLease(answer []byte, known *Plan) (*LeaseResponse, error) {
	if known != nil {
		if rest, ok := cutPlan(answer, known.wire); ok {
			var w leaseWire
			if json.NewDecoder(bytes.NewReader(rest)).Decode(&w) == nil && w.Plan == nil {
				w.LeaseResponse.Plan = known
				return &w.LeaseResponse, nil
			}
		}
	}
	var w leaseWire
	if err := json.NewDecoder(bytes.NewReader(answer)).Decode(&w); err != nil {
		return nil, err
	}
	lease := &w.LeaseResponse
	switch {
	case w.Plan == nil:
	case known != nil && bytes.Equal(w.Plan, known.wire):
		lease.Plan = known
	default:
		if err := json.Unmarshal(w.Plan, &lease.Plan); err != nil {
			return nil, err
		}
		if lease.Plan != nil {
			lease.Plan.wire = w.Plan
		}
	}
	return lease, nil
}

// cutPlan finds the plan member of the JSON object body and, when its
// value begins with plan — one whole object, so the value is plan —
// returns body without that member and one comma next to it. It walks
// the object's members, skipping strings and nesting without decoding
// them, and reports false when body's first value is not a whole object
// with exactly one such member, or when another key is one encoding/json
// could match to the plan field (it folds case and unquotes escapes).
// Decoded, the rest gives every field but the plan as body does whenever
// the rest decodes at all: it is then a valid object with the member cut
// at a member boundary.
func cutPlan(body, plan []byte) ([]byte, bool) {
	if len(plan) == 0 {
		return nil, false
	}
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, false
	}
	depth := 0
	key := false       // the next string is a member key
	comma := -1        // the last comma between the object's members
	from, to := -1, -1 // the plan member's bytes, with one comma
	for i < len(body) {
		switch c := body[i]; c {
		case '"':
			end := stringEnd(body, i)
			if end < 0 {
				return nil, false
			}
			if depth == 1 && key {
				switch name := body[i+1 : end-1]; {
				case string(name) == "plan":
					if from >= 0 {
						return nil, false
					}
					v := skipSpace(body, end)
					if v == len(body) || body[v] != ':' {
						return nil, false
					}
					v = skipSpace(body, v+1)
					if !bytes.HasPrefix(body[v:], plan) {
						return nil, false
					}
					end = v + len(plan)
					from, to = comma, end
					if comma < 0 {
						// The first member takes the comma after it.
						from = i
						if n := skipSpace(body, end); n < len(body) && body[n] == ',' {
							to = n + 1
						}
					}
				case bytes.IndexByte(name, '\\') >= 0 || bytes.EqualFold(name, []byte("plan")):
					return nil, false
				}
			}
			key = false
			i = end
		case '{', '[':
			depth++
			key = c == '{'
			i++
		case '}', ']':
			depth--
			key = false
			i++
			if depth == 0 {
				if from < 0 {
					return nil, false
				}
				rest := make([]byte, 0, len(body)-(to-from))
				return append(append(rest, body[:from]...), body[to:]...), true
			}
		case ',':
			if depth == 1 {
				comma = i
			}
			key = true
			i++
		default:
			i++
		}
	}
	return nil, false
}

// stringEnd returns the index just past the JSON string that starts at
// body[i], or -1 when it does not end.
func stringEnd(body []byte, i int) int {
	for j := i + 1; j < len(body); j++ {
		switch body[j] {
		case '\\':
			j++
		case '"':
			return j + 1
		}
	}
	return -1
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// Renew extends one lease (POST /v1/leases/{lease}/renew).
func (cl *Client) Renew(ctx context.Context, leaseID string) (*RenewResponse, error) {
	var rr RenewResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/renew", nil, &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// SubmitResult pushes one shard envelope back under its lease (POST
// /v1/leases/{lease}/result), as compact JSON. The envelope goes without
// its spec: the coordinator attaches its own plan's and refuses an upload
// that carries one.
func (cl *Client) SubmitResult(ctx context.Context, leaseID string, sr *scenario.ShardResult) (*SubmitResponse, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	var ack SubmitResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/result", bytes.NewReader(body), &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// SweepEvent is one parsed frame from a job's event stream.
type SweepEvent struct {
	// Type is the event field: EventShard or EventComplete.
	Type string
	// ID is the frame's id field (the shard index for EventShard, the
	// job ID for EventComplete).
	ID string
	// Data is the frame's payload: a compact scenario.ShardResult for
	// EventShard, a CompleteEvent for EventComplete.
	Data []byte
}

// errStreamEnded marks an event stream that died before EventComplete —
// a dropped connection, a restarted coordinator. FollowEvents treats it
// as retryable.
var errStreamEnded = errors.New("event stream ended before the job completed")

// Events subscribes to one job's stream (GET /v1/sweeps/{id}/events) and
// calls fn for every frame until the stream ends (after EventComplete),
// fn returns an error, or the context ends. A nil return means the
// stream completed. A single subscription dies with its connection;
// FollowEvents is the resilient variant. Deliberately exempt from the
// client's per-call deadline: the stream lives as long as the job.
func (cl *Client) Events(ctx context.Context, id string, fn func(SweepEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return &TransportError{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("GET /v1/sweeps/"+id+"/events", resp)
	}
	// A shard frame carries a whole envelope on one data line, as large as
	// the shard the coordinator accepted, so lines are read whole with no
	// fixed cap: the callback needs the whole envelope to decode it anyway.
	br := bufio.NewReader(resp.Body)
	var ev SweepEvent
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return &TransportError{Err: err}
		}
		if len(line) == 0 {
			break // end of stream
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		switch {
		case len(line) == 0:
			if ev.Type != "" || ev.Data != nil {
				done := ev.Type == EventComplete
				if err := fn(ev); err != nil {
					return err
				}
				if done {
					return nil
				}
			}
			ev = SweepEvent{}
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.Type = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			ev.ID = string(line[len("id: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			ev.Data = line[len("data: "):]
		}
		if err == io.EOF {
			break
		}
	}
	return fmt.Errorf("dist: job %s: %w", id, errStreamEnded)
}

// followRetries bounds FollowEvents' consecutive reconnect attempts that
// yield no new frame before it gives up. Any received frame resets the
// count.
const followRetries = 10

// FollowOptions tunes FollowEvents' reconnect behavior. The zero value
// is a working configuration.
type FollowOptions struct {
	// Backoff is the base reconnect delay, doubled per consecutive
	// failure up to 32x; 0 means 250ms.
	Backoff time.Duration
	// OnRetry, when non-nil, is told about each reconnect before the
	// wait — the CLI surfaces it on stderr.
	OnRetry func(err error, wait time.Duration)
}

// callbackError tags an error as coming from the caller's fn rather
// than the stream, so FollowEvents never retries it.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// FollowEvents is Events with reconnection: a dropped stream is
// re-subscribed with capped exponential backoff, and because the
// coordinator replays completed shards in index order on every
// subscription, frames already delivered to fn are deduplicated by
// their shard index — fn sees each shard exactly once regardless of how
// many times the connection died. fn errors and non-retryable refusals
// (an unknown job, a protocol mismatch) end the watch immediately.
func (cl *Client) FollowEvents(ctx context.Context, id string, opt FollowOptions, fn func(SweepEvent) error) error {
	base := opt.Backoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	seen := make(map[string]bool)
	failures := 0
	for {
		progressed := false
		err := cl.Events(ctx, id, func(ev SweepEvent) error {
			progressed = true
			if ev.Type == EventShard {
				if seen[ev.ID] {
					return nil
				}
				seen[ev.ID] = true
			}
			if err := fn(ev); err != nil {
				return &callbackError{err: err}
			}
			return nil
		})
		if err == nil {
			return nil
		}
		var cbe *callbackError
		if errors.As(err, &cbe) {
			return cbe.err
		}
		if ctx.Err() != nil {
			return err
		}
		if !Retryable(err) && !errors.Is(err, errStreamEnded) {
			return err
		}
		if progressed {
			failures = 0
		}
		failures++
		if failures > followRetries {
			return fmt.Errorf("dist: event stream for %s failed %d consecutive times, giving up: %w", id, failures, err)
		}
		wait := base << min(failures-1, 5)
		if hint := RetryAfterHint(err); hint > wait {
			wait = hint
		}
		if opt.OnRetry != nil {
			opt.OnRetry(err, wait)
		}
		mEventReconnects.Inc()
		if serr := sleep(ctx, wait); serr != nil {
			return err
		}
	}
}

// httpError folds a non-2xx response into a *RefusedError carrying the
// coordinator's message and its Retry-After hint, if any.
func httpError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &RefusedError{Op: op, Code: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}
