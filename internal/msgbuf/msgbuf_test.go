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
	var tb Table[int, int]
	for k := 0; k <= DefaultTableCap; k++ {
		tb.Put(k, k)
	}
	if _, ok := tb.Get(DefaultTableCap); ok {
		t.Fatal("table remembered a key past its cap")
	}
	if v, ok := tb.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	tb.Reset()
	if _, ok := tb.Get(0); ok {
		t.Fatal("reset table returned a hit")
	}
	tb.Put(-1, 4) // storage reused, cap still enforced from scratch
	if v, ok := tb.Get(-1); !ok || v != 4 {
		t.Fatalf("Get(-1) after reset = %d,%v", v, ok)
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
