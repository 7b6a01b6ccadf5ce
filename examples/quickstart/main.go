// Quickstart: achieve the paper's printing goal with a printer whose
// command dialect is unknown.
//
// A universal user — enumeration of candidate dialects driven by
// print-progress sensing — is paired with a printer speaking dialect 11 of
// a 16-dialect class. The user has no idea which dialect the printer
// speaks; sensing tells it when its current guess is not working, and it
// converges on the right one.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
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
	// The class of printers: 16 mutually unintelligible command
	// dialects over the printer protocol (PRINT/STATUS/ACK/READY).
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), 16)
	if err != nil {
		return err
	}

	// The adversary picks dialect 11; the user is not told.
	const serverDialect = 11
	srv := server.Dialected(&printing.Server{}, fam.Dialect(serverDialect))

	// The universal user: enumerate candidate users (one per dialect),
	// switch on negative sensing indications.
	user, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
	if err != nil {
		return err
	}

	g := &printing.Goal{}
	cfg := system.Config{MaxRounds: 800, Seed: 1}
	res, err := system.Run(user, srv, g.NewWorld(goal.Env{Seed: cfg.Seed}), cfg)
	if err != nil {
		return err
	}
	// Compact goals are judged on the bounded horizon: achieved iff the
	// last 10 prefixes are all acceptable.
	achieved := goal.CompactAchieved(g, res.History, 10)

	fmt.Println("printing goal:", g.Name())
	fmt.Println("server dialect (hidden from user):", serverDialect)
	fmt.Println("goal achieved:", achieved)
	fmt.Println("rounds executed:", res.Rounds)
	fmt.Println("candidates evicted before converging:", user.Switches())
	fmt.Println("final candidate dialect:", user.Index()%fam.Size())
	fmt.Println("final world state:", res.History.Last())
	if !achieved {
		return fmt.Errorf("expected the universal user to achieve the goal")
	}
	return nil
}
