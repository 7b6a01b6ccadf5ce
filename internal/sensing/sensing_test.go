package sensing

import (
	"testing"

	"repro/internal/comm"
)

func worldSays(msg string) *comm.RoundView {
	return &comm.RoundView{In: comm.Inbox{FromWorld: comm.Message(msg)}}
}

func TestNewPerRound(t *testing.T) {
	t.Parallel()

	s := New(func(rv *comm.RoundView) bool { return rv.In.FromWorld == "ok" })
	if s.Observe(worldSays("no")) {
		t.Fatal("positive on wrong round")
	}
	if !s.Observe(worldSays("ok")) {
		t.Fatal("negative on matching round")
	}
	if s.Observe(worldSays("no")) {
		t.Fatal("plain Func sense should not be sticky")
	}
}

func TestSticky(t *testing.T) {
	t.Parallel()

	s := Sticky(New(func(rv *comm.RoundView) bool { return rv.In.FromWorld == "ok" }))
	s.Observe(worldSays("no"))
	s.Observe(worldSays("ok"))
	if !s.Observe(worldSays("no")) {
		t.Fatal("sticky sense reverted")
	}
	s.Reset()
	if s.Observe(worldSays("no")) {
		t.Fatal("Reset did not clear sticky state")
	}
}

func TestPatience(t *testing.T) {
	t.Parallel()

	s := Patience(Const(false), 3)
	if !s.Observe(worldSays("")) {
		t.Fatal("negative after 1 round, patience 3")
	}
	if !s.Observe(worldSays("")) {
		t.Fatal("negative after 2 rounds, patience 3")
	}
	if s.Observe(worldSays("")) {
		t.Fatal("still positive after 3 negative rounds")
	}
}

func TestPatienceResetOnPositive(t *testing.T) {
	t.Parallel()

	inner := New(func(rv *comm.RoundView) bool { return rv.In.FromWorld == "ok" })
	s := Patience(inner, 2)
	s.Observe(worldSays(""))
	s.Observe(worldSays("ok")) // resets the negative run
	if !s.Observe(worldSays("")) {
		t.Fatal("negative run not reset by positive indication")
	}
}

func TestPatienceClampsToOne(t *testing.T) {
	t.Parallel()

	s := Patience(Const(false), 0)
	if s.Observe(worldSays("")) {
		t.Fatal("patience 0 should behave as 1: immediate negative")
	}
}

func TestConst(t *testing.T) {
	t.Parallel()

	if !Const(true).Observe(worldSays("")) {
		t.Fatal("Const(true) negative")
	}
	if Const(false).Observe(worldSays("")) {
		t.Fatal("Const(false) positive")
	}
}

func TestReplay(t *testing.T) {
	t.Parallel()

	s := Sticky(New(func(rv *comm.RoundView) bool { return rv.In.FromWorld == "ok" }))
	v := comm.View{Rounds: []comm.RoundView{
		*worldSays(""), *worldSays("ok"), *worldSays(""),
	}}
	if !Replay(s, v) {
		t.Fatal("replay missed the positive round")
	}
	empty := comm.View{}
	if Replay(s, empty) {
		t.Fatal("replay on empty view should be negative")
	}
}
