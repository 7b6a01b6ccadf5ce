package multiparty

import (
	"testing"
)

func TestGossipAllFullExchange(t *testing.T) {
	t.Parallel()

	f := fam(t, 4)
	members := []*Member{
		{Value: 11, D: f.Dialect(2)},
		{Value: 29, D: f.Dialect(0)},
		{Value: 5, D: f.Dialect(3)},
	}
	res, err := GossipAll(members, f, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("gossip incomplete: %+v", res.Values)
	}
	want := []int{11, 29, 5}
	for i, row := range res.Values {
		for j, v := range row {
			if v != want[j] {
				t.Fatalf("member %d learned %d for member %d, want %d", i, v, j, want[j])
			}
		}
	}
	maxV, err := res.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	if maxV != 29 {
		t.Fatalf("consensus max = %d", maxV)
	}
}

func TestGossipQuadraticCost(t *testing.T) {
	t.Parallel()

	f := fam(t, 4)
	mk := func(k int) []*Member {
		ms := make([]*Member, k)
		for i := range ms {
			ms[i] = &Member{Value: i * 3, D: f.Dialect(i % 4)}
		}
		return ms
	}
	small, err := GossipAll(mk(2), f, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := GossipAll(mk(4), f, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !small.OK || !large.OK {
		t.Fatal("gossip failed")
	}
	// k(k−1) sessions: 2 → 2 sessions, 4 → 12 sessions; cost must grow
	// super-linearly.
	if large.TotalRounds < 3*small.TotalRounds {
		t.Fatalf("gossip cost not quadratic-ish: k=2→%d k=4→%d",
			small.TotalRounds, large.TotalRounds)
	}
}

func TestGossipValidation(t *testing.T) {
	t.Parallel()

	f := fam(t, 2)
	if _, err := GossipAll(nil, f, Config{}); err == nil {
		t.Error("empty members accepted")
	}
	if _, err := GossipAll([]*Member{{Value: 1, D: f.Dialect(0)}}, nil, Config{}); err == nil {
		t.Error("nil family accepted")
	}
}

func TestGossipSingleMember(t *testing.T) {
	t.Parallel()

	f := fam(t, 2)
	res, err := GossipAll([]*Member{{Value: 7, D: f.Dialect(1)}}, f, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	maxV, err := res.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	if maxV != 7 {
		t.Fatalf("single-member consensus = %d", maxV)
	}
}

func TestGossipConsensusDetectsFailure(t *testing.T) {
	t.Parallel()

	// A member speaking a dialect outside the family breaks its
	// sessions; Consensus must refuse.
	f := fam(t, 2)
	foreign := fam(t, 5)
	members := []*Member{
		{Value: 1, D: f.Dialect(0)},
		{Value: 2, D: foreign.Dialect(4)},
	}
	res, err := GossipAll(members, f, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("foreign member's sessions should fail")
	}
	if _, err := res.Consensus(); err == nil {
		t.Fatal("consensus on incomplete gossip accepted")
	}
}
