package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		// Overlaps a (a concurrent worker): the union 10..50 counts once.
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 50},
		// Sticks out past its parent: only 90..100 is inside it.
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 2, Name: "leaf", StartNs: 15, EndNs: 25},
		{ID: 6, Name: "other-root", StartNs: 0, EndNs: 7},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	by := selfByName(spans)
	if by[0].Name != "root" || by[0].Self != 50 || by[0].Total != 100 || by[0].Count != 1 {
		t.Errorf("largest self time %+v, want root with self 50 of 100", by[0])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.start(1, 0, "root")
	child := tr.start(1, root.id, "child")
	child.end()
	root.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID {
		t.Fatalf("spans %+v: want child under root", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if self := selfTimes(tr.spans); self[root.id] < 0 || self[child.id] < 0 {
		t.Errorf("negative self times %v", self)
	}
}
