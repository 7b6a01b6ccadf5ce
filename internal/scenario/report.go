package scenario

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// WriteReport writes a sweep report — the spec name, the per-scenario
// aggregates in emission order and the summary — as indented JSON. The
// bytes are exactly what encoding/json's Encoder with SetIndent("", "  ")
// writes for
//
//	struct {
//		Spec      string   `json:"spec"`
//		Scenarios []*Stats `json:"scenarios"`
//		Summary   *Summary `json:"summary"`
//	}
//
// but they come from one pass over the fixed schema, row by row through
// a buffered writer, instead of a compact encoding followed by an indent
// pass over the whole report. encoding/json stays the reference: strings
// that need escaping go through json.Marshal, floats use its ES6 form,
// and a property test and a fuzz target hold the two writers equal.
//
// A NaN or infinite float fails with encoding/json's error before
// anything is written.
func WriteReport(w io.Writer, specName string, stats []*Stats, sum *Summary) error {
	if err := checkFloats(stats, sum); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	b := append(bw.AvailableBuffer(), "{\n  \"spec\": "...)
	b = appendString(b, specName)
	b = append(b, ",\n  \"scenarios\": "...)
	switch {
	case stats == nil:
		b = append(b, "null"...)
	case len(stats) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, st := range stats {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStats(append(b, "\n    "...), st)
			if _, err := bw.Write(b); err != nil {
				return err
			}
			b = bw.AvailableBuffer()
		}
		b = append(b, "\n  ]"...)
	}
	b = appendSummary(append(b, ",\n  \"summary\": "...), sum)
	b = append(b, "\n}\n"...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
}

// checkFloats returns encoding/json's error for the first float, in
// document order, that it cannot encode.
func checkFloats(stats []*Stats, sum *Summary) error {
	for _, st := range stats {
		if st == nil {
			continue
		}
		r := &st.Rounds
		for _, f := range [...]float64{st.SuccessRate, r.Mean, r.P50, r.P99, r.Max, r.Stddev,
			st.MeanExecutedRounds, st.MsgsPerRound, st.MeanSwitches} {
			if err := finite(f); err != nil {
				return err
			}
		}
	}
	if sum != nil {
		return finite(sum.SuccessRate)
	}
	return nil
}

// finite returns encoding/json's error for a NaN or infinite f.
func finite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return err
	}
	return nil
}

// appendStats appends one aggregate at the indentation of a report row.
func appendStats(b []byte, st *Stats) []byte {
	if st == nil {
		return append(b, "null"...)
	}
	b = appendString(append(b, "{\n      \"id\": "...), st.ID)
	b = append(b, ",\n      \"axes\": "...)
	switch {
	case st.Axes == nil:
		b = append(b, "null"...)
	case len(st.Axes) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, av := range st.Axes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, "\n        {\n          \"name\": "...), av.Name)
			b = appendString(append(b, ",\n          \"value\": "...), av.Value)
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	b = strconv.AppendInt(append(b, ",\n      \"trials\": "...), int64(st.Trials), 10)
	if st.Errors != 0 {
		b = strconv.AppendInt(append(b, ",\n      \"errors\": "...), int64(st.Errors), 10)
	}
	if st.FirstError != "" {
		b = appendString(append(b, ",\n      \"firstError\": "...), st.FirstError)
	}
	b = strconv.AppendInt(append(b, ",\n      \"successes\": "...), int64(st.Successes), 10)
	b = appendFloat(append(b, ",\n      \"successRate\": "...), st.SuccessRate)
	b = appendFloat(append(b, ",\n      \"roundsToSuccess\": {\n        \"mean\": "...), st.Rounds.Mean)
	b = appendFloat(append(b, ",\n        \"p50\": "...), st.Rounds.P50)
	b = appendFloat(append(b, ",\n        \"p99\": "...), st.Rounds.P99)
	b = appendFloat(append(b, ",\n        \"max\": "...), st.Rounds.Max)
	b = appendFloat(append(b, ",\n        \"stddev\": "...), st.Rounds.Stddev)
	b = appendFloat(append(b, "\n      },\n      \"meanExecutedRounds\": "...), st.MeanExecutedRounds)
	b = strconv.AppendInt(append(b, ",\n      \"executedRounds\": "...), st.ExecutedRounds, 10)
	b = appendFloat(append(b, ",\n      \"msgsPerRound\": "...), st.MsgsPerRound)
	b = appendFloat(append(b, ",\n      \"meanSwitches\": "...), st.MeanSwitches)
	return append(b, "\n    }"...)
}

// appendSummary appends the summary at the indentation of the report's
// top-level fields.
func appendSummary(b []byte, sum *Summary) []byte {
	if sum == nil {
		return append(b, "null"...)
	}
	b = appendString(append(b, "{\n    \"spec\": "...), sum.Spec)
	b = strconv.AppendInt(append(b, ",\n    \"scenarios\": "...), int64(sum.Scenarios), 10)
	b = strconv.AppendInt(append(b, ",\n    \"trials\": "...), int64(sum.Trials), 10)
	b = strconv.AppendInt(append(b, ",\n    \"errors\": "...), int64(sum.Errors), 10)
	b = strconv.AppendInt(append(b, ",\n    \"successes\": "...), int64(sum.Successes), 10)
	b = appendFloat(append(b, ",\n    \"successRate\": "...), sum.SuccessRate)
	b = strconv.AppendInt(append(b, ",\n    \"totalRounds\": "...), sum.TotalRounds, 10)
	return append(b, "\n  }"...)
}

// appendString appends s as a JSON string. A string without a byte that
// needsEscape reports is copied as is; any other string is json.Marshal's,
// so escaping is the standard library's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if needsEscape(s[i]) {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// needsEscape reports the bytes appendString leaves to json.Marshal: all
// but printable ASCII, and of that the quote, the backslash and the HTML
// characters encoding/json escapes.
func needsEscape(c byte) bool {
	return c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
}

// appendFloat appends a finite float the way encoding/json's floatEncoder
// does: ES6 number form, with exponents below 1e-6 and from 1e21 up, and
// no zero padding in a negative exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
