package multiparty

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/xrand"
)

func fam(t *testing.T, n int) *dialect.Family {
	t.Helper()
	f, err := dialect.NewWordFamily(Vocabulary(), n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMemberAnswersOwnDialectOnly(t *testing.T) {
	t.Parallel()

	f := fam(t, 4)
	m := &Member{Value: 42, D: f.Dialect(2)}
	m.Reset(xrand.New(1))

	out, err := m.Step(comm.Inbox{FromUser: f.Dialect(2).Encode("ASK")})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Dialect(2).Decode(out.ToUser); got != "VAL 42" {
		t.Fatalf("own-dialect reply decodes to %q", got)
	}

	out, err = m.Step(comm.Inbox{FromUser: f.Dialect(1).Encode("ASK")})
	if err != nil {
		t.Fatal(err)
	}
	if !out.ToUser.Empty() {
		t.Fatalf("member answered a foreign dialect: %q", out.ToUser)
	}
	out, err = m.Step(comm.Inbox{FromUser: "ASK"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.ToUser.Empty() {
		t.Fatal("member with non-identity dialect answered plain ASK")
	}
}

func TestLearnValuesUniversal(t *testing.T) {
	t.Parallel()

	f := fam(t, 5)
	members := []*Member{
		{Value: 7, D: f.Dialect(3)},
		{Value: 19, D: f.Dialect(0)},
		{Value: 4, D: f.Dialect(4)},
	}
	res, err := LearnValues(members, f, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("sessions failed: %+v", res.Sessions)
	}
	want := []int{7, 19, 4}
	for i, s := range res.Sessions {
		if s.Value != want[i] {
			t.Fatalf("sessions = %+v, want values %v", res.Sessions, want)
		}
	}
	maxV, err := res.Max()
	if err != nil {
		t.Fatal(err)
	}
	if maxV != 19 {
		t.Fatalf("max = %d", maxV)
	}
}

func TestOracleBaselineCheaper(t *testing.T) {
	t.Parallel()

	f := fam(t, 8)
	members := []*Member{
		{Value: 1, D: f.Dialect(6)},
		{Value: 2, D: f.Dialect(7)},
		{Value: 3, D: f.Dialect(5)},
	}
	reduction, err := LearnValues(members, f, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := LearnValues(members, f, Config{Seed: 2, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reduction.AllOK() || !oracle.AllOK() {
		t.Fatal("collection failed")
	}
	if oracle.TotalRounds >= reduction.TotalRounds {
		t.Fatalf("oracle (%d rounds) should beat reduction (%d rounds)",
			oracle.TotalRounds, reduction.TotalRounds)
	}
}

func TestLearnValuesScalesWithMembers(t *testing.T) {
	t.Parallel()

	f := fam(t, 4)
	mk := func(k int) []*Member {
		ms := make([]*Member, k)
		for i := range ms {
			ms[i] = &Member{Value: i, D: f.Dialect(i % 4)}
		}
		return ms
	}
	small, err := LearnValues(mk(2), f, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := LearnValues(mk(6), f, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !small.AllOK() || !large.AllOK() {
		t.Fatal("collection failed")
	}
	if large.TotalRounds <= small.TotalRounds {
		t.Fatalf("6 members (%d rounds) should cost more than 2 (%d rounds)",
			large.TotalRounds, small.TotalRounds)
	}
}

func TestLearnValuesValidation(t *testing.T) {
	t.Parallel()

	f := fam(t, 2)
	if _, err := LearnValues(nil, f, Config{}); err == nil {
		t.Error("empty members accepted")
	}
	if _, err := LearnValues([]*Member{{Value: 1, D: f.Dialect(0)}}, nil, Config{}); err == nil {
		t.Error("nil family accepted")
	}
}

func TestMaxErrorsOnFailure(t *testing.T) {
	t.Parallel()

	r := &Result{Sessions: []SessionResult{{OK: false}}}
	if _, err := r.Max(); err == nil {
		t.Error("Max on failed session accepted")
	}
	empty := &Result{}
	if _, err := empty.Max(); err == nil {
		t.Error("Max on empty result accepted")
	}
}

func TestFailedSessionReported(t *testing.T) {
	t.Parallel()

	// A member whose dialect is outside the coordinator's family can
	// never be understood; the session must fail cleanly.
	f := fam(t, 3)
	foreign := fam(t, 6) // dialects 3..5 are outside f
	members := []*Member{{Value: 9, D: foreign.Dialect(5)}}
	res, err := LearnValues(members, f, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllOK() {
		t.Fatal("foreign-dialect member understood?!")
	}
	if res.Sessions[0].Rounds != 120 {
		t.Fatalf("failed session rounds = %d, want the full bound 40 × 3", res.Sessions[0].Rounds)
	}
}
