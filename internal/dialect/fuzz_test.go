package dialect

import (
	"strings"
	"testing"

	"repro/internal/comm"
)

func FuzzWordRoundTrip(f *testing.F) {
	fam, err := NewWordFamily([]string{"PRINT", "STATUS", "ACK", "READY"}, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("PRINT doc with spaces", uint8(2))
	f.Add("w3_0 payload", uint8(3))
	f.Fuzz(func(t *testing.T, s string, idx uint8) {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(s)
		if got := d.Decode(d.Encode(m)); got != m {
			t.Fatalf("round trip broke: %q → %q", m, got)
		}
	})
}

// mapTokensRef is the reference translation mapTokens must equal: split
// the message at every space, replace each token the table maps, and
// join the tokens again.
func mapTokensRef(m comm.Message, table map[string]string) comm.Message {
	if m.Empty() {
		return m
	}
	tokens := strings.Split(string(m), " ")
	for i, tok := range tokens {
		if repl, ok := table[tok]; ok {
			tokens[i] = repl
		}
	}
	return comm.Message(strings.Join(tokens, " "))
}

// FuzzMapTokens holds mapTokens equal to the split-and-join reference
// over arbitrary messages and tables. pairs lists the table's entries as
// key, value, key, value... separated by newlines, so a key or a value
// may be empty and the empty tokens of leading, trailing and doubled
// spaces can be mapped too.
func FuzzMapTokens(f *testing.F) {
	f.Add("PRINT doc with spaces", "PRINT\nw1_0\nw1_0\nPRINT")
	f.Add("press 3", "press\nw2_4")
	f.Add("doc PRINT", "PRINT\nw1_0")
	f.Add("no table words here", "PRINT\nw1_0")
	f.Add(" lead  double trail ", "\nEMPTY\ndouble\nd")
	f.Add("  ", "\nx")
	f.Add("a b a", "a\n\nb\nbb")
	f.Add("same", "same\nsame")
	f.Fuzz(func(t *testing.T, msg, pairs string) {
		table := make(map[string]string)
		kv := strings.Split(pairs, "\n")
		for i := 0; i+1 < len(kv); i += 2 {
			table[kv[i]] = kv[i+1]
		}
		m := comm.Message(msg)
		if got, want := mapTokens(m, table), mapTokensRef(m, table); got != want {
			t.Fatalf("mapTokens(%q, %q) = %q, the split-and-join reference gives %q", m, table, got, want)
		}
	})
}
