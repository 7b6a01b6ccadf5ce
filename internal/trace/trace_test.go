package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/goals/treasure"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

// runPrinting produces a real execution to serialize.
func runPrinting(t *testing.T) (*system.Result, *printing.Goal) {
	t.Helper()
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	g := &printing.Goal{}
	res, err := system.Run(u, server.Dialected(&printing.Server{}, fam.Dialect(2)),
		g.NewWorld(goal.Env{}), system.Config{MaxRounds: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()

	res, g := runPrinting(t)
	rec, err := FromResult(res, "printing-demo", 9)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if back.Label != "printing-demo" || back.Seed != 9 || back.Rounds != res.Rounds {
		t.Fatalf("metadata lost: %+v", back)
	}
	h := back.History()
	if h.Len() != res.History.Len() {
		t.Fatalf("history length %d != %d", h.Len(), res.History.Len())
	}
	for i := range h.States {
		if h.States[i] != res.History.States[i] {
			t.Fatalf("state %d differs", i)
		}
	}
	v := back.View()
	for i := range v.Rounds {
		if v.Rounds[i] != res.View.Rounds[i] {
			t.Fatalf("view round %d differs", i)
		}
	}
	// Offline judgement must agree with online judgement.
	if !back.JudgeCompact(g, 10) {
		t.Fatal("offline referee disagrees with online achievement")
	}
	if !sensing.Replay(printing.Sense(0), back.View()) {
		t.Fatal("offline sensing replay negative on a successful run")
	}
}

func TestFromResultValidation(t *testing.T) {
	t.Parallel()

	if _, err := FromResult(nil, "x", 0); err == nil {
		t.Fatal("nil result accepted")
	}
	bad := &system.Result{Rounds: 1}
	bad.History.States = append(bad.History.States, "s")
	if _, err := FromResult(bad, "x", 0); err == nil {
		t.Fatal("mismatched history/view accepted")
	}
	// An unrecorded run keeps no rounds; its History and View lengths
	// still agree, but a record of it would be empty.
	u, err := universal.NewCompactUser(treasure.Enum(2), treasure.Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	g := &treasure.Goal{}
	off, err := system.Run(u, &treasure.Server{Secret: 1}, g.NewWorld(goal.Env{}),
		system.Config{MaxRounds: 7, Record: system.RecordOff})
	if err != nil {
		t.Fatal(err)
	}
	if v := off.View; off.History.Len() != v.Dropped+len(v.Rounds) || off.Rounds != 7 {
		t.Fatalf("RecordOff result: history %d, view %d, rounds %d", off.History.Len(), v.Dropped+len(v.Rounds), off.Rounds)
	}
	if _, err := FromResult(off, "x", 0); err == nil {
		t.Fatal("RecordOff result with dropped rounds accepted")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	t.Parallel()

	if _, err := Decode(strings.NewReader(`{"version": 99, "rounds": 0}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version": 1, "rounds": -5}`)); err == nil {
		t.Fatal("negative rounds accepted")
	}
	// The rounds field must count the round records exactly.
	for _, bad := range []string{
		`{"version":1,"rounds":7,"roundData":[]}`,
		`{"version":1,"rounds":5,"roundData":[{"state":"a"},{"state":"b"},{"state":"c"}]}`,
		`{"version":1,"rounds":2,"roundData":[{"state":"a"},{"state":"b"},{"state":"c"}]}`,
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Fatalf("inconsistent record accepted: %s", bad)
		}
	}
}

func TestEncodeIsStableJSON(t *testing.T) {
	t.Parallel()

	res, _ := runPrinting(t)
	rec, err := FromResult(res, "demo", 9)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rec.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoding not deterministic")
	}
	if !strings.Contains(a.String(), `"version": 1`) {
		t.Fatal("version field missing")
	}
}
