package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/universal"
)

// runExplain re-runs the execution behind one report row: goalsweep
// explain -spec F|-builtin B -id ID [-trial t] [-trace FILE] finds the
// scenario with that content-derived ID in the spec, binds it through the
// stock registry and runs trial t with exactly the seed the sweep derived
// for it (scenario.TrialSeed), judged by the sweep's referee at the
// sweep's window. The spec's -seeds/-window/-baseseed overrides name the
// sweep the row came from. The execution is recorded in full, so -trace
// can write it as a replayable trace record labelled with the ID, to be
// re-judged offline.
func runExplain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("goalsweep explain", flag.ContinueOnError)
	var sf sweepFlags
	sf.addSpec(fs)
	sf.addOverrides(fs)
	var (
		id        = fs.String("id", "", "scenario ID of the report row to re-run (required)")
		trial     = fs.Int("trial", 0, "trial index within the row, from 0")
		tracePath = fs.String("trace", "", "write the trial's replayable JSON trace to this file")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("explain: unexpected argument %q", fs.Arg(0))
	}
	if *id == "" {
		return fmt.Errorf("explain needs -id: a scenario ID from a report row (-csv, -json or -list)")
	}
	spec, err := sf.spec()
	if err != nil {
		return err
	}
	m, err := scenario.NewMatrix(spec)
	if err != nil {
		return err
	}
	trials, window, base := sf.config().Effective(m.Spec())
	if *trial < 0 || *trial >= trials {
		return fmt.Errorf("explain: trial %d outside the row's %d trials", *trial, trials)
	}
	sc, err := findScenario(m, *id)
	if err != nil {
		return err
	}
	bind, err := scenario.Builtin().Bind(sc)
	if err != nil {
		return err
	}
	// Parties are built in the batch engine's order: user, server, world.
	user, err := bind.User()
	if err != nil {
		return err
	}
	seed := scenario.TrialSeed(base, sc, *trial)
	res, err := system.Run(user, bind.Server(), bind.World(), system.Config{
		MaxRounds: bind.MaxRounds,
		Seed:      seed,
		Record:    system.RecordFull,
		Referee:   bind.Goal,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "scenario:  %s\n", sc)
	fmt.Fprintf(stdout, "trial:     %d of %d (seed %d)\n", *trial, trials, seed)
	fmt.Fprintf(stdout, "achieved:  %v\n", res.Achieved(window))
	fmt.Fprintf(stdout, "rounds:    %d (converged at %d)\n", res.Rounds, res.LastUnacceptable)
	fmt.Fprintf(stdout, "end state: %s\n", res.History.Last())
	if u, ok := user.(*universal.CompactUser); ok {
		fmt.Fprintf(stdout, "universal: %d evictions, final candidate %d\n", u.Switches(), u.Index())
	}
	if *tracePath == "" {
		return nil
	}
	rec, err := trace.FromResult(res, sc.ID(), seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*tracePath)
	if err != nil {
		return err
	}
	if err := rec.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "trace:     %s\n", *tracePath)
	return err
}

// findScenario scans the matrix for the scenario whose ID is id.
func findScenario(m *scenario.Matrix, id string) (*scenario.Scenario, error) {
	for i := int64(0); i < m.Size(); i++ {
		if sc := m.At(i); sc.ID() == id {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("explain: no scenario %s among the %d of spec %q", id, m.Size(), m.Spec().Name)
}
