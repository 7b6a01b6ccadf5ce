// Learning: the prediction goal and the online-learning equivalence.
//
// Three users face the same hidden threshold concept: the halving
// algorithm (an efficient universal user, O(log M) mistakes), the generic
// enumeration universal user (a conservative learner, O(M) mistakes) and a
// fixed wrong concept (mistakes forever — goal failed). The mistake counts
// make the Juba–Vempala equivalence concrete: for this "simple goal",
// being a universal user IS being a mistake-bounded online learner.
//
//	go run ./examples/learning
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/goals/learning"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const m = 128
	const concept = 97
	g := &learning.Goal{M: m}
	cfg := system.Config{MaxRounds: 8000, Seed: 3}

	type contestant struct {
		name string
		mk   func() (comm.Strategy, error)
	}
	contestants := []contestant{
		{"halving (efficient universal user)", func() (comm.Strategy, error) {
			return &learning.HalvingUser{M: m}, nil
		}},
		{"enumeration (generic universal user)", func() (comm.Strategy, error) {
			u, err := universal.NewCompactUser(learning.Enum(m), learning.MistakeSense())
			return u, err
		}},
		{"fixed concept 0 (ignores feedback)", func() (comm.Strategy, error) {
			return &learning.ThresholdUser{Concept: 0}, nil
		}},
	}

	fmt.Printf("domain size M=%d, hidden threshold concept c*=%d\n\n", m, concept)
	for _, c := range contestants {
		usr, err := c.mk()
		if err != nil {
			return err
		}
		w, ok := g.NewWorld(goal.Env{Choice: concept}).(*learning.World)
		if !ok {
			return fmt.Errorf("unexpected world type")
		}
		res, err := system.Run(usr, server.Obstinate(), w, cfg)
		if err != nil {
			return err
		}
		achieved := goal.CompactAchieved(g, res.History, 20)
		fmt.Printf("%-38s mistakes=%5d over %4d graded queries; goal achieved=%v\n",
			c.name, w.Mistakes(), w.Answered(), achieved)
	}
	fmt.Println("\nshape: log M  <  ~c*  <  unbounded — learner quality is exactly universality quality")
	return nil
}
