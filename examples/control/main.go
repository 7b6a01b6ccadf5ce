// Control: quantitative misunderstanding and the power of class-specific
// algorithms.
//
// The actuator understands every MOVE command but interprets its argument
// in its own calibration (a constant offset). A proportional controller
// with the wrong calibration parks the plant at a non-zero steady-state
// error forever. Three controllers face the same miscalibrated actuator:
// the matching candidate (oracle), the generic enumeration universal user,
// and an adaptive controller that identifies the calibration from a single
// zero-force probe — the paper's closing observation that special classes
// admit algorithms far better than enumeration.
//
//	go run ./examples/control
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/goals/control"
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
	const classSize = 15
	const serverIdx = 12 // calibration offset −6

	fam, err := control.NewUnitsFamily(classSize)
	if err != nil {
		return err
	}
	g := &control.Goal{}
	cfg := system.Config{MaxRounds: 300 * classSize, Seed: 3}
	srv := func() comm.Strategy {
		return server.Dialected(&control.Server{}, fam.Dialect(serverIdx))
	}

	fmt.Printf("actuator calibration: offset %+d (index %d of %d, hidden from the user)\n\n",
		control.OffsetFor(serverIdx), serverIdx, classSize)

	report := func(name string, usr comm.Strategy) error {
		w := g.NewWorld(goal.Env{Choice: 2})
		res, err := system.Run(usr, srv(), w, cfg)
		if err != nil {
			return err
		}
		achieved := goal.CompactAchieved(g, res.History, 10)
		fmt.Printf("%-28s achieved=%-5v settled at round %4d   end: %s\n",
			name, achieved, goal.LastUnacceptable(g, res.History), res.History.Last())
		return nil
	}

	if err := report("wrong fixed calibration", &control.Candidate{D: fam.Dialect(0)}); err != nil {
		return err
	}
	if err := report("oracle (matching)", &control.Candidate{D: fam.Dialect(serverIdx)}); err != nil {
		return err
	}
	u, err := universal.NewCompactUser(control.Enum(fam), control.Sense(0))
	if err != nil {
		return err
	}
	if err := report("universal (enumeration)", u); err != nil {
		return err
	}
	adaptive := &control.Adaptive{}
	if err := report("adaptive (one-probe ident.)", adaptive); err != nil {
		return err
	}
	fmt.Printf("\nadaptive identified offset %+d from its probe — correct\n", adaptive.Offset())
	fmt.Println("the adaptive controller is compatible with the WHOLE class at oracle-like cost:")
	fmt.Println("exactly the \"better algorithms for broad classes\" the paper's discussion calls for")
	return nil
}
