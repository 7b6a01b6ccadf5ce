package system_test

import (
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/enumerate"
	"repro/internal/fst"
	"repro/internal/system"
)

// fstParty builds a deterministic strategy from an arbitrary index so
// property tests can explore the behaviour space.
func fstParty(t *testing.T, idx uint32) comm.Strategy {
	t.Helper()
	space := fst.Space{NumStates: 3, NumIn: 3, NumOut: 3}
	codec := enumerate.SymbolCodec{
		NumIn:  3,
		NumOut: 3,
		In: func(in comm.Inbox) int {
			switch {
			case !in.FromServer.Empty():
				return 1
			case !in.FromWorld.Empty():
				return 2
			default:
				return 0
			}
		},
		Out: func(sym int) comm.Outbox {
			switch sym {
			case 1:
				return comm.Outbox{ToServer: "a", ToWorld: "b"}
			case 2:
				return comm.Outbox{ToUser: "c", ToWorld: "d"}
			default:
				return comm.Outbox{}
			}
		},
	}
	enum, err := enumerate.FST(space, codec)
	if err != nil {
		t.Fatal(err)
	}
	return enum.Strategy(int(idx) % enum.Size())
}

func TestEngineDeterminismProperty(t *testing.T) {
	t.Parallel()

	// Property: identical configurations produce identical histories and
	// views, for arbitrary FST parties and seeds.
	f := func(userIdx, serverIdx uint32, seed uint64, roundsRaw uint8) bool {
		rounds := int(roundsRaw)%50 + 1
		run := func() *system.Result {
			res, err := system.Run(
				fstParty(t, userIdx), fstParty(t, serverIdx),
				&commtest.CountingWorld{},
				system.Config{MaxRounds: rounds, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.Rounds != b.Rounds || a.Halted != b.Halted {
			return false
		}
		for i := range a.History.States {
			if a.History.States[i] != b.History.States[i] {
				return false
			}
		}
		for i := range a.View.Rounds {
			if a.View.Rounds[i] != b.View.Rounds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStructuralInvariants(t *testing.T) {
	t.Parallel()

	// Property: history, view and round counter always agree, and the
	// horizon is respected.
	f := func(userIdx, serverIdx uint32, roundsRaw uint8) bool {
		rounds := int(roundsRaw)%60 + 1
		res, err := system.Run(
			fstParty(t, userIdx), fstParty(t, serverIdx),
			&commtest.CountingWorld{},
			system.Config{MaxRounds: rounds, Seed: 1})
		if err != nil {
			return false
		}
		return res.Rounds == rounds &&
			res.History.Len() == rounds &&
			len(res.View.Rounds) == rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRoundViewEchoesOwnOutput(t *testing.T) {
	t.Parallel()

	// Property: the recorded view's Out fields are exactly what the user
	// strategy returned — verified by replaying the same FST offline.
	f := func(userIdx uint32, roundsRaw uint8) bool {
		rounds := int(roundsRaw)%30 + 2
		live := fstParty(t, userIdx)
		res, err := system.Run(live, &commtest.Silent{}, &commtest.CountingWorld{},
			system.Config{MaxRounds: rounds, Seed: 5})
		if err != nil {
			return false
		}
		// Offline replay: feed the recorded inboxes to a fresh copy.
		replay := fstParty(t, userIdx)
		replay.Reset(nil)
		for i, rv := range res.View.Rounds {
			out, err := replay.Step(rv.In)
			if err != nil {
				return false
			}
			if out != res.View.Rounds[i].Out {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
