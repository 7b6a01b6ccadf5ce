package comm

import (
	"testing"
	"testing/quick"
)

func TestMessageEmpty(t *testing.T) {
	t.Parallel()

	if !Message("").Empty() {
		t.Error("empty message reported non-empty")
	}
	if Message("x").Empty() {
		t.Error("non-empty message reported empty")
	}
}

func TestHistoryLastAndLen(t *testing.T) {
	t.Parallel()

	var h History
	if h.Len() != 0 {
		t.Fatalf("empty history Len = %d", h.Len())
	}
	if h.Last() != "" {
		t.Fatalf("empty history Last = %q", h.Last())
	}
	h = History{States: []WorldState{"a", "b", "c"}}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if h.Last() != "c" {
		t.Fatalf("Last = %q, want c", h.Last())
	}
}

func TestHistoryPrefix(t *testing.T) {
	t.Parallel()

	h := History{States: []WorldState{"a", "b", "c"}}
	p := h.Prefix(2)
	if p.Len() != 2 || p.Last() != "b" {
		t.Fatalf("Prefix(2) = %v", p.States)
	}
	if h.Prefix(0).Len() != 0 {
		t.Fatal("Prefix(0) not empty")
	}
}

func TestHistoryPrefixProperty(t *testing.T) {
	t.Parallel()

	// Prefix(n).Len() == n for all valid n, and prefixes agree with the
	// original history element-wise.
	f := func(raw []byte) bool {
		states := make([]WorldState, len(raw))
		for i, b := range raw {
			states[i] = WorldState(string(rune('a' + int(b)%26)))
		}
		h := History{States: states}
		for n := 0; n <= h.Len(); n++ {
			p := h.Prefix(n)
			if p.Len() != n {
				return false
			}
			for i := 0; i < n; i++ {
				if p.States[i] != h.States[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
