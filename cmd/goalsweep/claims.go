package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// claimsSummary counts the rows of each verdict; an outside row whose
// trials all succeeded counts apart from the other outside rows.
type claimsSummary struct {
	Scenarios        int `json:"scenarios"`
	Holds            int `json:"holds"`
	Late             int `json:"late"`
	Counterexamples  int `json:"counterexamples"`
	Outside          int `json:"outside"`
	OutsideSucceeded int `json:"outsideSucceeded"`
}

// runClaims prints Theorem 1's verdict for each row of a sweep (goalsweep
// claims -spec F|-builtin B [-sample n] [-json] [-out F]), computed by
// scenario.Matrix.Claims. It exits 1, after writing the report, when any
// row is a counterexample.
func runClaims(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("goalsweep claims", flag.ContinueOnError)
	var sf sweepFlags
	sf.add(fs)
	var (
		parallel = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS); does not affect results")
		jsonOut  = fs.Bool("json", false, "emit the verdicts and their summary as JSON")
		outPath  = fs.String("out", "", "write output to this file instead of stdout")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("claims: unexpected argument %q", fs.Arg(0))
	}
	spec, err := sf.spec()
	if err != nil {
		return err
	}
	m, err := scenario.NewMatrix(spec)
	if err != nil {
		return err
	}
	var indices []int64
	if sf.sample > 0 {
		indices = m.Sample(sf.sample, sf.sampleSeed)
	}
	cfg := sf.config()
	cfg.Parallel = *parallel
	claims, err := m.Claims(indices, cfg)
	if err != nil {
		return err
	}

	sum := claimsSummary{Scenarios: len(claims)}
	for _, c := range claims {
		switch {
		case c.Verdict == scenario.Holds:
			sum.Holds++
		case c.Verdict == scenario.Late:
			sum.Late++
		case c.Verdict == scenario.Counterexample:
			sum.Counterexamples++
		case c.Successes == c.Trials:
			sum.OutsideSucceeded++
		default:
			sum.Outside++
		}
	}

	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Spec    string            `json:"spec"`
			Claims  []*scenario.Claim `json:"claims"`
			Summary claimsSummary     `json:"summary"`
		}{m.Spec().Name, claims, sum})
	} else {
		err = writeClaims(out, m, claims, sum)
	}
	if err != nil {
		return err
	}
	if sum.Counterexamples > 0 {
		return fmt.Errorf("claims: %d counterexamples to Theorem 1", sum.Counterexamples)
	}
	return nil
}

// writeClaims renders the verdicts as a table, one row per scenario with
// a column for every axis that varies, then the summary.
func writeClaims(out io.Writer, m *scenario.Matrix, claims []*scenario.Claim, sum claimsSummary) error {
	varying := varyingAxes(m.Spec())
	tbl := &harness.Table{
		ID:      "CLAIMS",
		Title:   fmt.Sprintf("Theorem 1 on spec %q: %d of %d scenarios", m.Spec().Name, len(claims), m.Size()),
		Columns: append(append([]string{"scenario"}, varying...), "ok", "verdict", "why"),
	}
	for _, c := range claims {
		row := []string{c.ID}
		sc := &scenario.Scenario{Values: c.Axes}
		for _, name := range varying {
			row = append(row, sc.Str(name, ""))
		}
		tbl.AddRow(append(row, fmt.Sprintf("%d/%d", c.Successes, c.Trials), c.Verdict, c.Why)...)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "\nclaims: %d scenarios: %d hold, %d late, %d counterexamples, %d outside, %d outside but succeeded\n",
		sum.Scenarios, sum.Holds, sum.Late, sum.Counterexamples, sum.Outside, sum.OutsideSucceeded)
	return err
}
