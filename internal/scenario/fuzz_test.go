package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// specSeeds are the FuzzSpecJSON seed inputs: valid flat and composed
// envelopes plus near-misses the decoder must reject without panicking.
var specSeeds = []string{
	`{"name":"flat","axes":[{"name":"goal","values":["treasure"]}],"seeds":2}`,
	`{"name":"composed","blocks":[` +
		`{"axes":[{"name":"goal","values":["fsm"]},{"name":"machine","values":["0","1"]}]},` +
		`{"axes":[{"name":"goal","values":["treasure"]}]}` +
		`],"seeds":1,"window":10}`,
	`{"name":"both","axes":[{"name":"a","values":["x"]}],"blocks":[{"axes":[{"name":"a","values":["x"]}]}]}`,
	`{"name":"typo","axez":[{"name":"a","values":["x"]}]}`,
	`{"name":"empty-block","blocks":[{"axes":[]}]}`,
	`{"name":"dup","axes":[{"name":"a","values":["x"]},{"name":"a","values":["y"]}]}`,
	`not json at all`,
	`{"name":""}`,
}

// FuzzSpecJSON feeds arbitrary bytes through the spec decoder. ReadSpec
// must never panic; when it accepts an input, the input must be exactly
// one JSON value, the spec must survive matrix construction (a clean
// error is fine — overflow does that), its canonical form must be a
// fixpoint of Canonical, a serialize/decode round trip must preserve the
// fingerprint, and growing the envelope an unknown field must flip
// acceptance into rejection.
func FuzzSpecJSON(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("ReadSpec accepted more than one JSON value: %q", data)
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ReadSpec accepted a spec Validate rejects: %v", verr)
		}
		if _, merr := NewMatrix(spec); merr != nil {
			// A clean refusal (e.g. cross-product overflow) is fine; the
			// fingerprint below must still behave.
			t.Logf("matrix refused: %v", merr)
		}
		canon := spec.Canonical()
		fp := Fingerprint(spec, "r", 1, 1, 1, 0, 0)
		if got := Fingerprint(canon.Canonical(), "r", 1, 1, 1, 0, 0); got != fp {
			t.Fatalf("Canonical is not a fingerprint fixpoint: %s → %s", fp, got)
		}

		// Round trip: what the CLI writes, a reader must accept back,
		// and it must name the same sweep.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := ReadSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-read of %s: %v", enc, err)
		}
		if got := Fingerprint(back, "r", 1, 1, 1, 0, 0); got != fp {
			t.Fatalf("round trip changed fingerprint: %s → %s", fp, got)
		}

		// Unknown fields must stay fatal: inject one into the accepted
		// envelope and require rejection.
		var obj map[string]json.RawMessage
		if json.Unmarshal(data, &obj) == nil && obj != nil {
			obj["zzzUnknownField"] = json.RawMessage(`1`)
			grown, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSpec(bytes.NewReader(grown)); err == nil {
				t.Fatalf("unknown field accepted in %s", grown)
			}
		}
	})
}

// shardSeed builds a minimal valid shard envelope for the fuzz corpus.
func shardSeed(f *testing.F) []byte {
	f.Helper()
	sr := &ShardResult{
		Version:     ShardFormatVersion,
		Fingerprint: "00112233aabbccdd",
		Spec: &Spec{Name: "seed", Axes: []Axis{
			{Name: "goal", Values: []string{"treasure"}},
		}},
		Shard: Shard{Index: 1, Count: 2},
		Scenarios: []*Stats{{
			ID:     "treasure-0000000000000000",
			Axes:   []AxisValue{{Name: "goal", Value: "treasure"}},
			Trials: 1,
		}},
		Summary: &Summary{Spec: "seed", Scenarios: 1, Trials: 1},
	}
	var buf bytes.Buffer
	if err := sr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// decodeEnvelope is the reference ShardReader must agree with: the whole
// envelope decoded strictly in one pass, then validated.
func decodeEnvelope(data []byte) (*ShardResult, error) {
	var sr ShardResult
	if err := DecodeStrict(bytes.NewReader(data), &sr); err != nil {
		return nil, fmt.Errorf("scenario: decode shard result: %w", err)
	}
	if err := sr.Validate(); err != nil {
		return nil, err
	}
	return &sr, nil
}

// frameSeed is a compact envelope in the form a coordinator's frame
// takes: rows with and without errors, an empty and a missing axis list,
// a missing row, and floats in both of appendFloat's notations.
func frameSeed(f *testing.F) []byte {
	f.Helper()
	axes := []AxisValue{{Name: "goal", Value: "treasure"}, {Name: "class", Value: "8"}}
	sr := &ShardResult{
		Version:     ShardFormatVersion,
		Fingerprint: "00112233aabbccdd",
		Spec:        &Spec{Name: "seed", Axes: []Axis{{Name: "goal", Values: []string{"treasure"}}}, Seeds: 3},
		Shard:       Shard{Index: 2, Count: 3},
		Scenarios: []*Stats{
			{ID: "treasure-0000000000000001", Axes: axes, Trials: 3, Successes: 2, SuccessRate: 2.0 / 3,
				Rounds: Dist{Mean: 12.5, P50: 12, P99: 13, Max: 13, Stddev: 0.5}, MeanExecutedRounds: 40,
				ExecutedRounds: 120, MsgsPerRound: 1e-7, MeanSwitches: 2.5e21},
			{ID: "treasure-0000000000000002", Axes: axes, Trials: 3, Errors: 1, FirstError: "step: no reply",
				Successes: 0, ExecutedRounds: -1, MsgsPerRound: -0.25},
			{ID: "treasure-0000000000000003", Axes: []AxisValue{}, Trials: 1},
			{ID: "treasure-0000000000000004"},
			nil,
		},
		Summary: &Summary{Spec: "seed", Scenarios: 5, Trials: 10, Errors: 1, Successes: 2, SuccessRate: 0.2,
			TotalRounds: 119},
	}
	data, err := json.Marshal(sr)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReadShardResult feeds arbitrary bytes through the shard-envelope
// decoder: never panic, and anything accepted must be exactly one JSON
// value, validate, survive a write/read round trip, and keep rejecting
// unknown fields. A fresh ShardReader, and one warmed on a valid
// envelope, indented or compact, must give every input the same envelope
// or the same error as a one-pass decode, and the warm reader must read
// its warm-up envelope the same after. Any input the one-pass reader,
// readCompact, accepts in any of those states must be json.Marshal of
// the envelope it returned. The seeds probe its form: numbers that
// decode to the same value but do not re-encode to their own bytes,
// strings it must leave to the strict decoder, reordered keys,
// whitespace, a repeated spec key, the warm-up spec with one byte
// changed at equal length, and trailing bytes.
func FuzzReadShardResult(f *testing.F) {
	valid := shardSeed(f)
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 99`), 1))
	f.Add(bytes.Replace(valid, []byte(`"index": 1`), []byte(`"index": 7`), 1))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	var envelope ShardResult
	if err := json.Unmarshal(valid, &envelope); err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(&envelope)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Add(frameSeed(f))
	// A repeated spec key merges both objects in one decode.
	f.Add(bytes.Replace(compact, []byte(`,"shard":`), []byte(`,"spec":{"name":"merged"},"shard":`), 1))
	f.Add(bytes.Replace(compact, []byte(`"spec":{"name":"seed","axes":[{"name":"goal","values":["treasure"]}]}`),
		[]byte(`"spec":null`), 1))
	for _, edit := range [][2]string{
		{`"trials":1,"successes"`, `"trials":007,"successes"`},
		{`"successes":0,"successRate"`, `"successes":-0,"successRate"`},
		{`"successRate":0,"roundsToSuccess"`, `"successRate":+1,"roundsToSuccess"`},
		{`"successRate":0,"roundsToSuccess"`, `"successRate":1.0,"roundsToSuccess"`},
		{`"successRate":0,"roundsToSuccess"`, `"successRate":1e2,"roundsToSuccess"`},
		{`"id":"treasure-`, `"id":"\u0041treasure-`},
		{`"id":"treasure-`, `"id":"<treasure-`},
		{`"id":"treasure-`, `"id":"étreasure-`},
		{`{"version":1,"fingerprint":"00112233aabbccdd",`, `{"fingerprint":"00112233aabbccdd","version":1,`},
		{`"version":1,`, `"version": 1,`},
		{`"spec":{"name":"seed"`, `"spec":{"name":"seee"`},
	} {
		f.Add(bytes.Replace(compact, []byte(edit[0]), []byte(edit[1]), 1))
	}
	f.Add(append(bytes.Clone(compact), '\n'))
	f.Add(append(bytes.Clone(compact), ` {}`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := decodeEnvelope(data)
		cold, cerr := new(ShardReader).Read(bytes.NewReader(data))
		if fmt.Sprint(cerr) != fmt.Sprint(err) || !reflect.DeepEqual(cold, sr) {
			t.Fatalf("a fresh reader read %q as (%+v, %v), a one-pass decode as (%+v, %v)", data, cold, cerr, sr, err)
		}
		onePass := func(rd ShardReader) {
			got, ok := rd.readCompact(data)
			if !ok {
				return
			}
			if enc, err := json.Marshal(got); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("the one-pass reader accepted %q, but its envelope encodes as %q (%v)", data, enc, err)
			}
		}
		onePass(ShardReader{})
		for _, warmup := range [][]byte{valid, compact} {
			var rd ShardReader
			want, werr := rd.Read(bytes.NewReader(warmup))
			if werr != nil {
				t.Fatal(werr)
			}
			onePass(rd)
			got, gerr := rd.Read(bytes.NewReader(data))
			if fmt.Sprint(gerr) != fmt.Sprint(err) || !reflect.DeepEqual(got, sr) {
				t.Fatalf("a warm reader read %q as (%+v, %v), a one-pass decode as (%+v, %v)", data, got, gerr, sr, err)
			}
			if again, err := rd.Read(bytes.NewReader(warmup)); err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("after %q the reader reads its warm-up envelope as (%+v, %v)", data, again, err)
			}
		}
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("ShardReader accepted more than one JSON value: %q", data)
		}
		if verr := sr.Validate(); verr != nil {
			t.Fatalf("ShardReader accepted an envelope Validate rejects: %v", verr)
		}
		var buf bytes.Buffer
		if err := sr.Write(&buf); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		back, err := new(ShardReader).Read(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.Fingerprint != sr.Fingerprint || back.Shard != sr.Shard ||
			len(back.Scenarios) != len(sr.Scenarios) {
			t.Fatal("write/read round trip changed the envelope framing")
		}
		var obj map[string]json.RawMessage
		if json.Unmarshal(data, &obj) == nil && obj != nil {
			obj["zzzUnknownField"] = json.RawMessage(`1`)
			grown, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := new(ShardReader).Read(bytes.NewReader(grown)); err == nil {
				t.Fatalf("unknown field accepted in %s", grown)
			}
		}
	})
}
