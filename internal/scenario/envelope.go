package scenario

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// readCompact is the one-pass envelope reader. It reads data when it is
// exactly the form json.Marshal gives a ShardResult:
//   - compact, with the fields in struct order, and errors and firstError
//     only when nonzero;
//   - every string free of the bytes appendString leaves to json.Marshal,
//     so no string holds an escape;
//   - every integer as strconv prints it, and every float as appendFloat
//     does (each number must re-encode to its own bytes);
//   - a spec that is null, byte-equal to the last spec this reader read
//     (which the envelope then shares), or a new spec that a strict
//     decoder reads at its offset and json.Marshal re-encodes to the same
//     bytes (which the reader then remembers).
//
// An input it accepts is json.Marshal of the envelope it returns, and
// DecodeStrict decodes that input to an equal envelope. For any other
// input it reports false.
func (rd *ShardReader) readCompact(data []byte) (*ShardResult, bool) {
	p := compactReader{b: data, base: len(data) + 1}
	sr := new(ShardResult)
	p.lit(`{"version":`)
	sr.Version = p.int()
	p.lit(`,"fingerprint":`)
	sr.Fingerprint = p.str()
	p.lit(`,"spec":`)
	spec, specJSON := rd.readSpec(&p)
	sr.Spec = spec
	if !p.bad {
		// Every later string is a substring of one copy of the rest.
		p.text, p.base = string(data[p.i:]), p.i
	}
	p.lit(`,"shard":{"index":`)
	sr.Shard.Index = p.int()
	p.lit(`,"count":`)
	sr.Shard.Count = p.int()
	p.lit(`},"scenarios":`)
	if !p.null() {
		p.lit(`[`)
		sr.Scenarios = []*Stats{}
		for !p.bad && !p.try(`]`) {
			if len(sr.Scenarios) > 0 {
				p.lit(`,`)
			}
			sr.Scenarios = append(sr.Scenarios, p.stats())
		}
	}
	p.lit(`,"summary":`)
	if !p.null() {
		sum := new(Summary)
		p.lit(`{"spec":`)
		sum.Spec = p.str()
		p.lit(`,"scenarios":`)
		sum.Scenarios = p.int()
		p.lit(`,"trials":`)
		sum.Trials = p.int()
		p.lit(`,"errors":`)
		sum.Errors = p.int()
		p.lit(`,"successes":`)
		sum.Successes = p.int()
		p.lit(`,"successRate":`)
		sum.SuccessRate = p.float()
		p.lit(`,"totalRounds":`)
		sum.TotalRounds = p.int64()
		p.lit(`}`)
		sr.Summary = sum
	}
	p.lit(`}`)
	if p.bad || p.i != len(data) {
		return nil, false
	}
	if spec != nil && spec != rd.spec {
		rd.specJSON, rd.spec = specJSON, spec
	}
	return sr, true
}

// readSpec reads an envelope's spec value at p: null, the bytes of the
// reader's last spec, or a new spec in the form json.Marshal gives it.
// It returns the spec and its bytes.
func (rd *ShardReader) readSpec(p *compactReader) (*Spec, []byte) {
	if p.bad || p.null() {
		return nil, nil
	}
	rest := p.b[p.i:]
	if n := len(rd.specJSON); n > 0 && len(rest) > n && bytes.Equal(rest[:n], rd.specJSON) {
		// The last spec is one whole object, so the value ends where
		// its bytes do.
		p.i += n
		return rd.spec, rd.specJSON
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	spec := new(Spec)
	if dec.Decode(spec) != nil {
		p.bad = true
		return nil, nil
	}
	n := int(dec.InputOffset())
	enc, err := json.Marshal(spec)
	if err != nil || !bytes.Equal(enc, rest[:n]) {
		p.bad = true
		return nil, nil
	}
	p.i += n
	return spec, bytes.Clone(rest[:n])
}

// stats reads one scenario aggregate. The rows of an envelope share a
// few backing arrays, allocated as they grow.
func (p *compactReader) stats() *Stats {
	if p.null() {
		return nil
	}
	if len(p.rows) == cap(p.rows) {
		p.rows = make([]Stats, 0, max(16, 2*cap(p.rows)))
	}
	p.rows = append(p.rows, Stats{})
	st := &p.rows[len(p.rows)-1]
	p.lit(`{"id":`)
	st.ID = p.str()
	p.lit(`,"axes":`)
	if !p.null() {
		p.lit(`[`)
		st.Axes = make([]AxisValue, 0, p.axes)
		for !p.bad && !p.try(`]`) {
			if len(st.Axes) > 0 {
				p.lit(`,`)
			}
			var av AxisValue
			p.lit(`{"name":`)
			av.Name = p.str()
			p.lit(`,"value":`)
			av.Value = p.str()
			p.lit(`}`)
			st.Axes = append(st.Axes, av)
		}
		p.axes = len(st.Axes)
	}
	p.lit(`,"trials":`)
	st.Trials = p.int()
	if p.try(`,"errors":`) {
		if st.Errors = p.int(); st.Errors == 0 {
			p.bad = true // json.Marshal omits a zero count
		}
	}
	if p.try(`,"firstError":`) {
		if st.FirstError = p.str(); st.FirstError == "" {
			p.bad = true // json.Marshal omits an empty message
		}
	}
	p.lit(`,"successes":`)
	st.Successes = p.int()
	p.lit(`,"successRate":`)
	st.SuccessRate = p.float()
	p.lit(`,"roundsToSuccess":{"mean":`)
	st.Rounds.Mean = p.float()
	p.lit(`,"p50":`)
	st.Rounds.P50 = p.float()
	p.lit(`,"p99":`)
	st.Rounds.P99 = p.float()
	p.lit(`,"max":`)
	st.Rounds.Max = p.float()
	p.lit(`,"stddev":`)
	st.Rounds.Stddev = p.float()
	p.lit(`},"meanExecutedRounds":`)
	st.MeanExecutedRounds = p.float()
	p.lit(`,"executedRounds":`)
	st.ExecutedRounds = p.int64()
	p.lit(`,"msgsPerRound":`)
	st.MsgsPerRound = p.float()
	p.lit(`,"meanSwitches":`)
	st.MeanSwitches = p.float()
	p.lit(`}`)
	return st
}

// compactReader reads the tokens of one compact envelope from b at i.
// Once a token is not of the expected form, bad is set and every later
// read is a no-op returning a zero value.
type compactReader struct {
	b   []byte
	i   int
	bad bool

	text string  // a copy of b[base:], which strings from base on are cut from
	base int     // len(b)+1 until text is set
	rows []Stats // the backing array of the rows being read
	axes int     // the last row's axis count, the next one's capacity
}

// try consumes s if the input continues with it.
func (p *compactReader) try(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// lit consumes s, which the input must continue with.
func (p *compactReader) lit(s string) {
	if !p.try(s) {
		p.bad = true
	}
}

func (p *compactReader) null() bool { return p.try("null") }

// str reads a string that needs no escape and returns its contents.
func (p *compactReader) str() string {
	if p.bad || p.i >= len(p.b) || p.b[p.i] != '"' {
		p.bad = true
		return ""
	}
	for j := p.i + 1; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			i := p.i + 1
			p.i = j + 1
			if i >= p.base {
				return p.text[i-p.base : j-p.base]
			}
			return string(p.b[i:j])
		case needsEscape(c):
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// number returns the longest run of bytes at i that can belong to a
// JSON number.
func (p *compactReader) number() []byte {
	j := p.i
	for j < len(p.b) {
		if c := p.b[j]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		j++
	}
	return p.b[p.i:j]
}

// intToken parses tok as an integer printed as strconv.AppendInt prints
// it, and reports false for any other spelling.
func intToken(tok []byte) (int64, bool) {
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	v := int64(u)
	if len(digits) < len(tok) {
		v = -v
	}
	var buf [20]byte
	if string(strconv.AppendInt(buf[:0], v, 10)) != string(tok) {
		return 0, false // leading zeros, -0, or out of range
	}
	return v, true
}

// int64 reads an integer printed as strconv.AppendInt prints it.
func (p *compactReader) int64() int64 {
	if p.bad {
		return 0
	}
	tok := p.number()
	v, ok := intToken(tok)
	if !ok {
		p.bad = true
		return 0
	}
	p.i += len(tok)
	return v
}

// int reads an integer that fits an int.
func (p *compactReader) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.bad = true
		return 0
	}
	return int(v)
}

// float reads a float written as appendFloat writes it. An integer of
// magnitude below 2^53, most of a sweep's floats, is one a float64 holds
// exactly and appendFloat prints as strconv prints the integer, so it
// needs no float parse.
func (p *compactReader) float() float64 {
	if p.bad {
		return 0
	}
	tok := p.number()
	if v, ok := intToken(tok); ok && -1<<53 < v && v < 1<<53 {
		p.i += len(tok)
		return float64(v)
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err != nil || string(appendFloat(buf[:0], f)) != string(tok) {
		p.bad = true
		return 0
	}
	p.i += len(tok)
	return f
}

// SpliceSpec returns the compact encoding of an envelope with a spec:
// bare is json.Marshal of the envelope with a nil Spec, and spec is
// json.Marshal of the spec. The result is json.Marshal of the envelope
// with that spec, built without encoding either again.
func SpliceSpec(bare, spec []byte) []byte {
	// A string json.Marshal writes escapes every quote in it, so the
	// first occurrence is the envelope's own spec member.
	const member = `,"spec":null,`
	i := bytes.Index(bare, []byte(member))
	if i < 0 {
		panic("scenario: SpliceSpec: the envelope is not encoded without its spec")
	}
	i += len(`,"spec":`)
	out := make([]byte, 0, len(bare)-len("null")+len(spec))
	out = append(out, bare[:i]...)
	out = append(out, spec...)
	return append(out, bare[i+len("null"):]...)
}
