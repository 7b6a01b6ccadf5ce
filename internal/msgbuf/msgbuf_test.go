package msgbuf

import "testing"

func TestMemo1(t *testing.T) {
	var m Memo1[string, int]
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty memo returned a hit")
	}
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v after Put", v, ok)
	}
	m.Put("b", 2) // displaces a
	if _, ok := m.Get("a"); ok {
		t.Fatal("displaced key still hit")
	}
	if v, ok := m.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d,%v", v, ok)
	}
	m.Reset()
	if _, ok := m.Get("b"); ok {
		t.Fatal("reset memo returned a hit")
	}
}

func TestTableCapAndReset(t *testing.T) {
	tb := NewTable[string, int](2)
	tb.Put("a", 1)
	tb.Put("b", 2)
	tb.Put("c", 3) // past the cap: dropped
	if _, ok := tb.Get("c"); ok {
		t.Fatal("capped table remembered a key past its cap")
	}
	if v, ok := tb.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	tb.Reset()
	if _, ok := tb.Get("a"); ok {
		t.Fatal("reset table returned a hit")
	}
	tb.Put("d", 4) // storage reused, cap still enforced from scratch
	if v, ok := tb.Get("d"); !ok || v != 4 {
		t.Fatalf("Get(d) after reset = %d,%v", v, ok)
	}

	var zero Table[string, int]
	zero.Put("x", 9)
	if v, ok := zero.Get("x"); !ok || v != 9 {
		t.Fatalf("zero-value table Get(x) = %d,%v", v, ok)
	}
}

func TestTableHitNoAlloc(t *testing.T) {
	var tb Table[string, string]
	tb.Put("k", "v")
	allocs := testing.AllocsPerRun(100, func() { tb.Get("k") })
	if allocs != 0 {
		t.Errorf("table hit allocated %.1f times per run, want 0", allocs)
	}
}
