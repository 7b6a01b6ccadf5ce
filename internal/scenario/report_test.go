package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// encodeReport is the reference WriteReport is held to: encoding/json's
// Encoder, indented as the goalsweep CLI always wrote its reports.
func encodeReport(specName string, stats []*Stats, sum *Summary) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Spec      string   `json:"spec"`
		Scenarios []*Stats `json:"scenarios"`
		Summary   *Summary `json:"summary"`
	}{specName, stats, sum})
	return buf.Bytes(), err
}

// checkReport fails the test unless WriteReport and the reference write
// the same bytes or fail with the same error, having written nothing.
func checkReport(t *testing.T, specName string, stats []*Stats, sum *Summary) {
	t.Helper()
	want, wantErr := encodeReport(specName, stats, sum)
	var got bytes.Buffer
	gotErr := WriteReport(&got, specName, stats, sum)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("WriteReport error %v, encoding/json error %v", gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteReport differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// reportStrings are the string values the report tests draw from: plain
// ASCII, every class of character encoding/json escapes (HTML, control
// bytes, quote and backslash, DEL, invalid UTF-8, U+2028 and U+2029) and
// valid multi-byte UTF-8 it does not.
var reportStrings = []string{
	"", "fsm", "3x2x2", "0.125", "7f3a90c1d2e4b5a6",
	"<script>&amp;</script>", "a<b", "a>b", "x&y",
	"\x00", "tab\there", "line\nbreak\r", "\b\f\x1f", "\x7f",
	`quote " and \ backslash`,
	"\xff\xfe", "bad \xc3 tail", " ", "sep sep",
	"héllo wörld", "日本語", "😀",
	"scenario: goal \"fsm\": machine index 9 outside space 2x2x2 of size 8",
}

// reportFloats are the float values the report tests draw from: the
// ES6-form cutoffs of encoding/json's floatEncoder and their neighbours,
// signed zero, the smallest subnormal, the largest finite value,
// everyday aggregates, and the non-finite values both writers refuse.
var reportFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 2.0 / 3, 12, 400, 1234.5678,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9,
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e100,
	5e-324, math.MaxFloat64, 123456789012345680000,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// filler sets every serialized field of a value to a random draw, by
// reflection: a field added to Stats or Summary later is filled without
// any change here, so WriteReport must learn to write it too.
type filler struct {
	t      *testing.T
	r      *xrand.Rand
	finite bool // draw only finite floats
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(reportStrings[f.r.Intn(len(reportStrings))])
	case reflect.Int, reflect.Int64:
		// Zero a third of the time, so omitempty fields are left out.
		if f.r.Intn(3) > 0 {
			v.SetInt(int64(f.r.Intn(1 << 20)))
		}
	case reflect.Float64:
		n := len(reportFloats)
		if f.finite {
			n -= 3
		}
		x := reportFloats[f.r.Intn(n)]
		if f.r.Intn(2) == 0 {
			x = f.r.Float64() * math.Pow(10, float64(f.r.Intn(50)-25))
		}
		v.SetFloat(x)
	case reflect.Struct:
		ty := v.Type()
		for i := 0; i < ty.NumField(); i++ {
			if sf := ty.Field(i); sf.IsExported() && sf.Tag.Get("json") != "-" {
				f.fill(v.Field(i))
			}
		}
	case reflect.Slice:
		// nil, empty or a few elements.
		switch k := f.r.Intn(6); k {
		case 0:
			v.SetZero()
		default:
			s := reflect.MakeSlice(v.Type(), k-1, k-1)
			for i := 0; i < s.Len(); i++ {
				f.fill(s.Index(i))
			}
			v.Set(s)
		}
	default:
		f.t.Fatalf("report field of kind %s: teach WriteReport and this filler to write it", v.Kind())
	}
}

// TestWriteReportMatchesEncoder checks WriteReport against encoding/json
// on reports whose every serialized field is drawn at random: nil and
// empty scenario and axis lists, strings needing every kind of escape,
// floats at the ES6 cutoffs, and non-finite floats, which both writers
// must refuse with the same error.
func TestWriteReportMatchesEncoder(t *testing.T) {
	t.Parallel()
	r := xrand.New(1)
	for it := 0; it < 2000; it++ {
		f := &filler{t: t, r: r, finite: it%4 != 0}
		var stats []*Stats
		switch n := r.Intn(8); n {
		case 0:
			// nil scenarios
		case 1:
			stats = []*Stats{}
		default:
			for i := 0; i < n-1; i++ {
				st := new(Stats)
				f.fill(reflect.ValueOf(st).Elem())
				stats = append(stats, st)
			}
		}
		var sum *Summary
		if r.Intn(8) > 0 {
			sum = new(Summary)
			f.fill(reflect.ValueOf(sum).Elem())
		}
		checkReport(t, reportStrings[r.Intn(len(reportStrings))], stats, sum)
	}
}

// TestWriteReportMatchesSweep checks the writer on a real sweep's
// aggregates, an errored scenario among them.
func TestWriteReportMatchesSweep(t *testing.T) {
	t.Parallel()
	spec, err := BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	var stats []*Stats
	sum, err := m.Sweep(m.Sample(40, 3), SweepConfig{OnStats: func(st *Stats) error {
		stats = append(stats, st)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	stats[1] = &Stats{ID: stats[1].ID, Axes: stats[1].Axes, Trials: 2, Errors: 2, FirstError: "system: trial 0: <boom> & \"bust\""}
	checkReport(t, spec.Name, stats, sum)
}

// FuzzReportJSON holds WriteReport to encoding/json on fuzzed strings and
// floats: the two writers must produce the same bytes or both fail.
// shape selects nil or empty lists, a nil row, a nil summary and which
// fields the floats land in.
func FuzzReportJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("family", "7f3a90c1", "goal", "fsm", "", 0, 1.0, 1e-6, 1e21, uint8(0))
	f.Add("<spec>&", "id ", "a ", "\xff", "boom\x00\n", 3, negZero, 5e-324, 1e-7, uint8(0x1d))
	f.Add("s", "", "", "", "", -1, math.NaN(), 0.5, 2.0, uint8(0x02))
	f.Add("s", "x", "y<z", "z", "", 1, 1.0, math.Inf(1), math.Inf(-1), uint8(0xf0))
	f.Add("\t\"q\"\\", "日本", "é", "\x7f", "err <b>", 2, 999999999999999999999.0, 1e20, -1e-6, uint8(0x64))
	f.Fuzz(func(t *testing.T, spec, id, axis, value, firstErr string, errs int, f1, f2, f3 float64, shape uint8) {
		fs := []float64{f1, f2, f3}
		pick := func(i int) float64 { return fs[(i+int(shape>>5))%3] }
		st := &Stats{
			ID:                 id,
			Axes:               []AxisValue{{Name: axis, Value: value}, {Name: value, Value: axis}},
			Trials:             errs + 1,
			Errors:             errs,
			FirstError:         firstErr,
			Successes:          1,
			SuccessRate:        pick(0),
			Rounds:             Dist{Mean: pick(1), P50: pick(2), P99: pick(0), Max: pick(1), Stddev: pick(2)},
			MeanExecutedRounds: pick(0),
			ExecutedRounds:     int64(errs) << 33,
			MsgsPerRound:       pick(1),
			MeanSwitches:       pick(2),
		}
		if shape&1 != 0 {
			st.Axes = nil
		} else if shape&2 != 0 {
			st.Axes = []AxisValue{}
		}
		stats := []*Stats{st, {ID: value, Axes: []AxisValue{{Name: "goal", Value: spec}}, SuccessRate: f1}}
		if shape&4 != 0 {
			stats[1] = nil
		}
		switch shape >> 3 & 3 {
		case 1:
			stats = nil
		case 2:
			stats = []*Stats{}
		}
		var sum *Summary
		if shape>>5 != 7 {
			sum = &Summary{Spec: spec, Scenarios: len(stats), Trials: errs, Errors: -errs,
				Successes: 1, SuccessRate: pick(2), TotalRounds: -int64(errs)}
		}
		checkReport(t, spec, stats, sum)
	})
}
