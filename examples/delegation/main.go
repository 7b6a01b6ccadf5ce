// Delegation: a finite goal solved by Levin-style universal search.
//
// The world poses a subset-sum instance the user cannot (by policy) solve
// itself; a solver server speaks an unknown dialect. The finite-goal
// universal runner dovetails candidate users with growing budgets and halts
// on the first attempt whose submitted witness verifies locally — sensing
// that is safe by construction.
//
//	go run ./examples/delegation
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/delegation"
	"repro/internal/server"
	"repro/internal/universal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const classSize = 12
	fam, err := dialect.NewWordFamily(delegation.Vocabulary(), classSize)
	if err != nil {
		return err
	}
	g := &delegation.Goal{N: 14}

	// Peek at the instance the world will pose (for narration only).
	if w, ok := g.NewWorld(goal.Env{Choice: 1}).(*delegation.World); ok {
		ins := w.Instance()
		fmt.Printf("instance: weights=%v target=%d\n", ins.Weights, ins.Target)
	}

	for _, serverDialect := range []int{0, 5, 11} {
		fr := &universal.FiniteRunner{
			Enum:  delegation.Enum(fam),
			Sense: delegation.Sense(),
		}
		res, err := fr.Run(
			func() comm.Strategy {
				return server.Dialected(&delegation.Server{}, fam.Dialect(serverDialect))
			},
			func() goal.World { return g.NewWorld(goal.Env{Choice: 1}) },
			7,
		)
		if err != nil {
			return err
		}
		if !res.Succeeded {
			return fmt.Errorf("search failed for dialect %d", serverDialect)
		}
		fmt.Printf("server dialect %2d: found candidate %2d with budget %2d after %3d attempts (%5d simulated rounds); referee: %v\n",
			serverDialect, res.Index, res.Budget, len(res.Attempts), res.TotalRounds,
			g.Achieved(res.Final.History))
	}
	fmt.Println("note how the simulated-round cost grows with the matching candidate's index —")
	fmt.Println("the enumeration overhead the paper proves essentially necessary")
	return nil
}
