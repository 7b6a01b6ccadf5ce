// Printer tour: the paper's motivating example in full.
//
// Walks through (1) the failure of a fixed-protocol user against a
// mismatched printer, (2) the universal user succeeding against every
// printer in the class, (3) what goes wrong when sensing is unsafe (it
// trusts a lying printer's ACKs) and (4) empirical certification that the
// stock sensing function is safe and viable for this goal and class.
//
//	go run ./examples/printer
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/goals/printing"
	"repro/internal/harness"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
)

const classSize = 8

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fam, err := dialect.NewWordFamily(printing.Vocabulary(), classSize)
	if err != nil {
		return err
	}
	g := &printing.Goal{}
	cfg := system.Config{MaxRounds: 60 * classSize, Seed: 1}

	fmt.Println("--- 1. fixed-protocol user vs the printer class ---")
	for _, idx := range []int{0, 3} {
		usr := &printing.Candidate{D: fam.Dialect(0)}
		srv := server.Dialected(&printing.Server{}, fam.Dialect(idx))
		achieved, _, err := achieve(g, usr, srv, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  printer dialect %d: achieved=%v\n", idx, achieved)
	}
	fmt.Println("  (the fixed user only ever works on its own dialect)")

	fmt.Println("--- 2. universal user vs every printer in the class ---")
	for idx := 0; idx < classSize; idx++ {
		usr, err := universal.NewCompactUser(printing.Enum(fam), printing.Sense(0))
		if err != nil {
			return err
		}
		srv := server.Dialected(&printing.Server{}, fam.Dialect(idx))
		achieved, res, err := achieve(g, usr, srv, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  printer dialect %d: achieved=%v after %d evictions, %d rounds\n",
			idx, achieved, usr.Switches(), res.Rounds)
		if !achieved {
			return fmt.Errorf("universal user failed on dialect %d", idx)
		}
	}

	fmt.Println("--- 3. unsafe sensing vs a lying printer ---")
	usr, err := universal.NewCompactUser(printing.Enum(fam), printing.TrustingSense())
	if err != nil {
		return err
	}
	achieved, res, err := achieve(g, usr, &printing.LyingServer{}, cfg)
	if err != nil {
		return err
	}
	fooled := sensing.Replay(printing.TrustingSense(), res.View)
	fmt.Printf("  goal achieved: %v; sensing indication: positive=%v\n", achieved, fooled)
	fmt.Println("  (the ACK-trusting sense reports success on a printer that printed nothing —")
	fmt.Println("   exactly the safety violation the theory's conditions rule out)")

	fmt.Println("--- 4. certifying the stock sensing function ---")
	servers := make([]func() comm.Strategy, classSize)
	for i := range servers {
		d := fam.Dialect(i)
		servers[i] = func() comm.Strategy { return server.Dialected(&printing.Server{}, d) }
	}
	all := append(append([]func() comm.Strategy{}, servers...),
		func() comm.Strategy { return server.Obstinate() },
		func() comm.Strategy { return &printing.LyingServer{} },
	)
	certCfg := harness.CertConfig{MaxRounds: cfg.MaxRounds, Seed: 1, Envs: 1}
	safety := harness.CertifySafetyCompact(g, func() sensing.Sense { return printing.Sense(0) },
		printing.Enum(fam), all, certCfg)
	viability := harness.CertifyViabilityCompact(g, func() sensing.Sense { return printing.Sense(0) },
		printing.Enum(fam), servers, certCfg)
	fmt.Printf("  safety violations: %d, viability violations: %d\n", len(safety), len(viability))
	if len(safety)+len(viability) > 0 {
		return fmt.Errorf("stock sensing failed certification")
	}
	fmt.Println("  (safe and viable — so Theorem 1 applies, and part 2 above is its witness)")
	return nil
}

// achieve runs user and srv on the goal's world and judges the recorded
// history: achieved iff the last 10 prefixes are all acceptable.
func achieve(g *printing.Goal, usr, srv comm.Strategy, cfg system.Config) (bool, *system.Result, error) {
	res, err := system.Run(usr, srv, g.NewWorld(goal.Env{Seed: cfg.Seed}), cfg)
	if err != nil {
		return false, nil, err
	}
	return goal.CompactAchieved(g, res.History, 10), res, nil
}
