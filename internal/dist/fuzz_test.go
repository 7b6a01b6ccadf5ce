package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// FuzzV1Requests throws arbitrary bodies at the two /v1 routes that
// decode one — POST /v1/sweeps and POST /v1/leases — on a fresh service
// through the loopback transport. The coordinator must never panic or
// answer 5xx, and answers 2xx exactly for bodies that decode strictly
// (one JSON value, no unknown fields) to a valid request.
func FuzzV1Requests(f *testing.F) {
	spec, err := scenario.BuiltinSpec("quick")
	if err != nil {
		f.Fatal(err)
	}
	quick, err := json.Marshal(SweepRequest{Protocol: ProtocolVersion, Spec: spec, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick, []byte(`{"protocol":2,"worker":"w","parallel":2}`))
	f.Add(bytes.Replace(quick, []byte(`"shards":2`), []byte(`"shards":99999999`), 1), []byte(`{"protocol":1,"worker":"w"}`))
	f.Add([]byte(`{"protocol":2,"spec":{"name":"t","axes":[{"name":"goal","values":["treasure"]}]},"sampleN":3}`), []byte(`{}`))
	f.Add([]byte(`{"protocol":2,"spec":null}`), []byte(`{"protocol":2} trailing`))
	f.Add([]byte(`{"protocol":2,"shards":-1}`), []byte(`not json`))
	f.Fuzz(func(t *testing.T, sweepBody, leaseBody []byte) {
		svc, err := NewService(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		client := LoopbackClient(svc)
		for _, tc := range []struct {
			path  string
			body  []byte
			valid bool
		}{
			{"/v1/sweeps", sweepBody, validSweepRequest(sweepBody)},
			{"/v1/leases", leaseBody, validLeaseRequest(leaseBody)},
		} {
			resp, err := client.Post("http://coordinator"+tc.path, "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("POST %s answered %d for %q", tc.path, resp.StatusCode, tc.body)
			}
			if ok := resp.StatusCode < 300; ok != tc.valid {
				t.Fatalf("POST %s answered %d for %q, but the body is valid=%v", tc.path, resp.StatusCode, tc.body, tc.valid)
			}
		}
	})
}

// validSweepRequest is the admission oracle for POST /v1/sweeps: the
// body decodes strictly, speaks this protocol, and carries a spec that
// expands to a matrix and plans under its shard count (0 asks for
// auto-sharding, which always picks a count in range).
func validSweepRequest(body []byte) bool {
	var req SweepRequest
	if !decodesStrictly(body, &req) ||
		req.Protocol != ProtocolVersion || req.Spec == nil || req.Spec.Validate() != nil || req.Shards < 0 {
		return false
	}
	if _, err := scenario.NewMatrix(req.Spec); err != nil {
		return false
	}
	cfg := scenario.SweepConfig{Seeds: req.Seeds, Window: req.Window, BaseSeed: req.BaseSeed}
	_, err := NewPlan(req.Spec, "v", cfg, max(req.Shards, 1), req.SampleN, req.SampleSeed)
	return err == nil
}

// validLeaseRequest is the oracle for POST /v1/leases: any body that
// decodes strictly and speaks this protocol gets an answer.
func validLeaseRequest(body []byte) bool {
	var req LeaseRequest
	return decodesStrictly(body, &req) && req.Protocol == ProtocolVersion
}

// FuzzResultUpload throws arbitrary bodies at POST
// /v1/leases/{lease}/result under a live lease on shard 1/12 of a planned
// quick sweep, on a fresh service per input. The coordinator must never
// panic or answer 5xx, and answers 2xx exactly when the body decodes
// strictly into an envelope that carries no spec, names the plan's
// fingerprint and the leased shard, and passes ShardResult.Validate once
// the plan's spec is attached. It is a target of its own because every
// input needs a live lease on a planned job. The seeds derive from a
// real worker's upload, so they keep their roles when the registry
// version moves: the upload itself, compact as workers send it and
// indented, the same carrying a spec, cut in half, and under a foreign
// fingerprint.
func FuzzResultUpload(f *testing.F) {
	spec, err := scenario.BuiltinSpec("quick")
	if err != nil {
		f.Fatal(err)
	}
	// One scenario per shard keeps the seeds small enough to minimize.
	const shards = 12
	plan, err := NewPlan(spec, scenario.Builtin().Version(), scenario.SweepConfig{}, shards, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	leased := scenario.Shard{Index: 1, Count: shards}
	sr, err := (&Worker{}).runShard(&LeaseResponse{Protocol: ProtocolVersion, Status: StatusLease,
		LeaseID: "lease-1", Shard: leased, Plan: &plan})
	if err != nil {
		f.Fatal(err)
	}
	upload := func(edit func(*scenario.ShardResult)) []byte {
		body := *sr
		edit(&body)
		var buf bytes.Buffer
		if err := body.Write(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := upload(func(*scenario.ShardResult) {})
	f.Add(valid)
	compact, err := json.Marshal(sr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Add(upload(func(sr *scenario.ShardResult) { sr.Spec = spec }))
	f.Add(valid[:len(valid)/2])
	f.Add(upload(func(sr *scenario.ShardResult) { sr.Fingerprint = "0123456789abcdef" }))
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, err := NewService(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		_, _, err = svc.submitPlanLocked(plan)
		svc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		lease, herr := svc.leaseLocked(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"}, "")
		if herr != nil || lease.Status != StatusLease || lease.Shard != leased {
			t.Fatalf("fresh job leased %+v (%v), want shard %s", lease, herr, leased)
		}
		resp, err := LoopbackClient(svc).Post("http://coordinator/v1/leases/"+lease.LeaseID+"/result",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("upload answered %d for %q", resp.StatusCode, body)
		}
		if ok, valid := resp.StatusCode < 300, validUpload(body, lease.Plan, leased); ok != valid {
			t.Fatalf("upload answered %d for %q, but the body is valid=%v", resp.StatusCode, body, valid)
		}
	})
}

// validUpload is the acceptance oracle for a result upload under a lease
// on shard of plan: exactly one JSON value that decodes strictly into an
// envelope without a spec, carrying the plan's fingerprint and the
// leased shard, whose framing validates once the plan's spec is
// attached.
func validUpload(body []byte, plan *Plan, shard scenario.Shard) bool {
	var sr scenario.ShardResult
	if !decodesStrictly(body, &sr) || sr.Spec != nil || sr.Fingerprint != plan.Fingerprint || sr.Shard != shard {
		return false
	}
	sr.Spec = plan.Spec
	return sr.Validate() == nil
}

// decodesStrictly is the oracles' own reading of scenario.DecodeStrict:
// data is exactly one JSON value, and it decodes into v with no unknown
// fields.
func decodesStrictly(data []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return json.Valid(data) && dec.Decode(v) == nil
}

// streamTransport is a stub RoundTripper that answers every request 200
// with its bytes as the body, standing in for a coordinator's event
// stream.
type streamTransport []byte

func (s streamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader(s)),
		Request:    req,
	}, nil
}

// readEvents parses a raw stream with Client.Events, collecting frames.
func readEvents(stream []byte) ([]SweepEvent, error) {
	var frames []SweepEvent
	cl := NewClient("http://coordinator", &http.Client{Transport: streamTransport(stream)})
	err := cl.Events(context.Background(), "job", func(ev SweepEvent) error {
		frames = append(frames, ev)
		return nil
	})
	return frames, err
}

// FuzzSSEEvents feeds arbitrary bytes to Client.Events as an event
// stream: the parser must never panic, never hand the callback an empty
// frame, and report a completed stream only after a complete frame.
// Separately, the replay handleEvents writes for a finished job — n shard
// envelopes carrying arbitrary strings, recorded as the accept path
// records them, then the complete frame — must parse back frame for
// frame, each shard frame's data being the encoding the recording made,
// which must be json.Marshal of the envelope with the job's spec.
func FuzzSSEEvents(f *testing.F) {
	f.Add([]byte("event: shard\nid: 1\ndata: {}\n\nevent: complete\nid: job\ndata: {}\n\n"), "quick", "00112233aabbccdd", uint8(1))
	f.Add([]byte("data: x\n\n\n\nevent: complete\n"), "", "", uint8(0))
	f.Add([]byte(": comment\r\nevent:shard\r\nid: 2\r\n\r\n"), "name\nwith \"newline\"", "fp\r ", uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, name, fingerprint string, shards uint8) {
		frames, err := readEvents(raw)
		for _, ev := range frames {
			if ev.Type == "" && ev.Data == nil {
				t.Fatalf("Events delivered an empty frame from %q", raw)
			}
		}
		if err == nil && (len(frames) == 0 || frames[len(frames)-1].Type != EventComplete) {
			t.Fatalf("Events reported a completed stream without a complete frame from %q", raw)
		}

		spec, err := scenario.BuiltinSpec("quick")
		if err != nil {
			t.Fatal(err)
		}
		spec.Name = name
		n := int(shards%8) + 1
		j := newJob(Plan{Spec: spec, Shards: n, Fingerprint: "00112233aabbccdd"})
		var want []SweepEvent
		for idx := 1; idx <= n; idx++ {
			sr := &scenario.ShardResult{Version: scenario.ShardFormatVersion, Fingerprint: fingerprint,
				Shard: scenario.Shard{Index: idx, Count: n}}
			bare, err := json.Marshal(sr)
			if err != nil {
				t.Fatal(err)
			}
			sr.Spec = spec
			full, err := json.Marshal(sr)
			if err != nil {
				t.Fatal(err)
			}
			data := j.record(sr, bare)
			if !bytes.Equal(data, full) {
				t.Fatalf("shard %d recorded as %q, want its encoding with the spec %q", idx, data, full)
			}
			want = append(want, SweepEvent{Type: EventShard, ID: strconv.Itoa(idx), Data: data})
		}
		data, err := json.Marshal(CompleteEvent{ID: j.id, Spec: name, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, SweepEvent{Type: EventComplete, ID: j.id, Data: data})

		svc, err := NewService(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		svc.jobs[j.id] = j
		svc.order = append(svc.order, j)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+j.id+"/events", nil))
		got, err := readEvents(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("replayed stream did not parse: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("replay parsed into %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Type != want[i].Type || got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("frame %d parsed as %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzStateDirPlan writes arbitrary bytes as one job's recorded plan,
// <state>/<dir>/job.json, and starts a service over the state dir.
// NewService must neither panic nor fail, and the plan must end up in
// exactly one of two states: recovered — the bytes are one JSON value
// that decodes strictly into a valid plan whose job ID is the directory
// name, and the job is queued — or quarantined, renamed byte for byte to
// job.json.corrupt with the plan heal counter incremented. Seeds are
// committed under testdata/fuzz/FuzzStateDirPlan.
func FuzzStateDirPlan(f *testing.F) {
	const dirName = "sw-0123456789abcdef-2"
	f.Fuzz(func(t *testing.T, data []byte) {
		stateDir := t.TempDir()
		planPath := filepath.Join(stateDir, dirName, jobPlanFile)
		if err := os.MkdirAll(filepath.Dir(planPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		healed0 := mStateHealed.With("plan").Value()

		svc, err := NewService(CoordinatorConfig{StateDir: stateDir})
		if err != nil {
			t.Fatalf("service refused to start over %q: %v", data, err)
		}
		healed := mStateHealed.With("plan").Value() - healed0
		_, planErr := os.Stat(planPath)
		corrupt, corruptErr := os.ReadFile(planPath + ".corrupt")
		jobs := svc.Jobs()

		var plan Plan
		valid := decodesStrictly(data, &plan) && plan.Validate() == nil && JobID(plan) == dirName
		if valid {
			if planErr != nil || corruptErr == nil || healed != 0 || len(jobs) != 1 || jobs[0].ID != dirName {
				t.Fatalf("valid plan %q not recovered: plan file %v, quarantine %v, healed %d, jobs %+v",
					data, planErr, corruptErr, healed, jobs)
			}
			return
		}
		if !os.IsNotExist(planErr) || corruptErr != nil || !bytes.Equal(corrupt, data) || healed != 1 || len(jobs) != 0 {
			t.Fatalf("unusable plan %q not quarantined: plan file %v, quarantine %v, healed %d, jobs %+v",
				data, planErr, corruptErr, healed, jobs)
		}
	})
}

// leaseReference is the decode Client.Lease must agree with: the whole
// answer decoded as one value, its plan left as bytes, then the plan
// decoded unless its bytes are known's.
func leaseReference(body []byte, known *Plan) (*LeaseResponse, error) {
	const path = "/v1/leases"
	var wire struct {
		LeaseResponse
		Plan json.RawMessage `json:"plan,omitempty"` // shadows LeaseResponse.Plan
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
		return nil, &TransportError{Err: fmt.Errorf("dist: decode %s response: %w", path, err)}
	}
	lease := &wire.LeaseResponse
	if lease.Protocol != ProtocolVersion {
		return nil, fmt.Errorf("dist: coordinator speaks protocol %d, want %d", lease.Protocol, ProtocolVersion)
	}
	switch {
	case wire.Plan == nil:
	case known != nil && bytes.Equal(wire.Plan, known.wire):
		lease.Plan = known
	default:
		if err := json.Unmarshal(wire.Plan, &lease.Plan); err != nil {
			return nil, &TransportError{Err: fmt.Errorf("dist: decode %s response: %w", path, err)}
		}
		if lease.Plan != nil {
			lease.Plan.wire = wire.Plan
		}
	}
	return lease, nil
}

// FuzzLeaseAnswer holds Client.Lease to the full decode it replaces. For
// any answer body, with the plan of a coordinator's grant as the known
// plan, Lease must return an equal LeaseResponse (the plan pointer
// aside) and the same error as leaseReference. The seeds are the
// coordinator's grant and variants of it: its plan with one byte
// changed, the plan member nested in an unknown field, two plan members,
// the plan's bytes inside a string, the plan member first, a key
// encoding/json matches to the plan field in another spelling, and the
// grant cut short.
func FuzzLeaseAnswer(f *testing.F) {
	spec, err := scenario.BuiltinSpec("quick")
	if err != nil {
		f.Fatal(err)
	}
	plan, err := NewPlan(spec, scenario.Builtin().Version(), scenario.SweepConfig{}, 2, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		f.Fatal(err)
	}
	svc.mu.Lock()
	_, _, err = svc.submitPlanLocked(plan)
	svc.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	resp, err := LoopbackClient(svc).Post("http://coordinator/v1/leases", "application/json",
		strings.NewReader(`{"protocol":2,"worker":"w"}`))
	if err != nil {
		f.Fatal(err)
	}
	grant, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		f.Fatal(err)
	}
	first, err := leaseReference(grant, nil)
	if err != nil || first.Plan == nil {
		f.Fatalf("the coordinator's grant %q decodes to (%+v, %v)", grant, first, err)
	}
	known := first.Plan
	wire := known.wire
	at := bytes.Index(grant, append([]byte(`,"plan":`), wire...))
	if at < 0 {
		f.Fatalf("the grant %q holds no plan member", grant)
	}
	head, tail := grant[:at], grant[at+len(`,"plan":`)+len(wire):]
	join := func(parts ...string) []byte { return []byte(strings.Join(parts, "")) }
	quoted, err := json.Marshal(string(wire))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grant)
	f.Add(bytes.Replace(grant, []byte(`"shards":2,`), []byte(`"shards":3,`), 1))
	f.Add(join(string(head), `,"extra":{"plan":`, string(wire), `}`, string(tail)))
	f.Add(join(`{"extra":{"plan":`, string(wire), `},`, string(grant[1:at]), string(tail)))
	f.Add(join(string(head), `,"plan":`, string(wire), `,"plan":`, string(wire), string(tail)))
	f.Add(join(string(head), `,"plan":`, string(wire), `,"plan":null`, string(tail)))
	f.Add(join(string(head), `,"note":`, string(quoted), string(tail)))
	f.Add(join(`{"plan":`, string(wire), `,`, string(grant[1:at]), string(tail)))
	f.Add(join(string(head), `,"Plan":`, string(wire), string(tail)))
	f.Add(join(string(head), ` , "plan" : `, string(wire), ` `, string(tail)))
	f.Add(grant[:len(grant)/2])
	f.Add(grant[:at+len(`,"plan":`)+len(wire)])
	f.Fuzz(func(t *testing.T, body []byte) {
		cl := NewClient("http://coordinator", &http.Client{Transport: streamTransport(body)})
		got, err := cl.Lease(context.Background(), "", LeaseRequest{Worker: "w"}, known)
		want, werr := leaseReference(body, known)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Lease read %q as (%+v, %v), the full decode as (%+v, %v)", body, got, err, want, werr)
		}
	})
}
