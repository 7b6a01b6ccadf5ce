package system

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/xrand"
)

// countingWorld counts Snapshot calls so the tests below can pin the
// engine's lazy-snapshot contract.
type countingWorld struct {
	snaps int
}

func (w *countingWorld) Reset(*xrand.Rand)                    { w.snaps = 0 }
func (w *countingWorld) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{}, nil }
func (w *countingWorld) Snapshot() comm.WorldState {
	w.snaps++
	return "counted"
}

type silentUser struct{}

func (silentUser) Reset(*xrand.Rand)                    {}
func (silentUser) Step(comm.Inbox) (comm.Outbox, error) { return comm.Outbox{}, nil }

// TestLazySnapshotSkipsSerialization pins the engine fix: with recording
// off and no OnRound consumer, the round loop must never serialize the
// world — zero Snapshot calls, pure waste otherwise.
func TestLazySnapshotSkipsSerialization(t *testing.T) {
	w := &countingWorld{}
	res, err := Run(silentUser{}, silentUser{}, w, Config{MaxRounds: 50, Seed: 1, Record: RecordOff})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 50 {
		t.Fatalf("Rounds = %d, want 50", res.Rounds)
	}
	if w.snaps != 0 {
		t.Errorf("RecordOff without OnRound serialized the world: %d Snapshot calls, want 0", w.snaps)
	}
	ReleaseResult(res)
}

// TestLazySnapshotLiveHookStillSkips pins that OnRoundLive — the sweep
// tracker hook — does not force materialization: the hook sees the live
// world, not a snapshot.
func TestLazySnapshotLiveHookStillSkips(t *testing.T) {
	w := &countingWorld{}
	live := 0
	cfg := Config{MaxRounds: 30, Seed: 1, Record: RecordOff,
		OnRoundLive: func(round int, rv comm.RoundView, lw goal.World) {
			if lw != goal.World(w) {
				t.Fatal("OnRoundLive did not receive the live world")
			}
			live++
		}}
	res, err := Run(silentUser{}, silentUser{}, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live != 30 {
		t.Fatalf("OnRoundLive fired %d times, want 30", live)
	}
	if w.snaps != 0 {
		t.Errorf("OnRoundLive forced serialization: %d Snapshot calls, want 0", w.snaps)
	}
	ReleaseResult(res)
}

// TestSnapshotConsumersStillServed pins the other side of the contract:
// full recording and OnRound still materialize one state per round.
func TestSnapshotConsumersStillServed(t *testing.T) {
	t.Run("record-full", func(t *testing.T) {
		w := &countingWorld{}
		res, err := Run(silentUser{}, silentUser{}, w, Config{MaxRounds: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if w.snaps != 20 {
			t.Errorf("Snapshot called %d times under full recording, want 20", w.snaps)
		}
		if got := res.History.Len(); got != 20 {
			t.Errorf("history length %d, want 20", got)
		}
		for _, st := range res.History.States {
			if st != "counted" {
				t.Fatalf("recorded state %q, want %q", st, "counted")
			}
		}
		ReleaseResult(res)
	})
	t.Run("onround-plain-world", func(t *testing.T) {
		w := &countingWorld{}
		states := 0
		cfg := Config{MaxRounds: 20, Seed: 1, Record: RecordOff,
			OnRound: func(round int, rv comm.RoundView, state comm.WorldState) {
				if state != "counted" {
					t.Fatalf("OnRound state %q, want %q", state, "counted")
				}
				states++
			}}
		res, err := Run(silentUser{}, silentUser{}, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if states != 20 || w.snaps != 20 {
			t.Errorf("OnRound saw %d states from %d Snapshot calls, want 20/20", states, w.snaps)
		}
		ReleaseResult(res)
	})
}
