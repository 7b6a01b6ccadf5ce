// Command goalcert empirically certifies the semantic properties the
// theory's Theorem 1 assumes: helpfulness of each server in a class, and
// safety and viability of a goal's stock sensing function.
//
// Usage:
//
//	goalcert -goal printing -class 8
//	goalcert -goal treasure -class 16
//	goalcert -goal transfer -class 6
//	goalcert -goal control -class 5 -parallel 4
//	goalcert -goal printing -class 8 -json
//
// Certification sweeps are embarrassingly parallel and run through the
// batch engine; -parallel bounds the worker pool without affecting the
// verdicts. -json emits the report as a harness.CertReport — fully
// deterministic, for tracking certification across commits — and the exit
// code still signals failure.
//
// For each goal it binds the standard server class through the stock
// scenario registry, as sweeps do (plus known-unhelpful probes: an
// obstinate server and, for printing, a lying one), reports
// which servers are certified helpful with a witness candidate, and checks
// the sensing function's safety and viability against the class.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/goals/printing"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "goalcert:", err)
		os.Exit(1)
	}
}

// certGoals are the goals goalcert certifies, in usage order, each with
// the size (the registry's param axis) it is certified at: transfer over
// 4 chunks, control over a 20-step span, printing and treasure at their
// defaults.
var certGoals = []struct {
	name  string
	param int
}{{"printing", 0}, {"treasure", 0}, {"transfer", 4}, {"control", 20}}

// certGoalNames lists the accepted goal names for usage and errors.
func certGoalNames() string {
	names := make([]string, len(certGoals))
	for i, g := range certGoals {
		names[i] = g.name
	}
	return strings.Join(names, ", ")
}

// cast binds goalName's class of the given size through the stock
// registry: the goal, enumeration, sensing and class members sweeps run.
func cast(goalName string, classSize int) (*scenario.Parts, error) {
	for _, g := range certGoals {
		if g.name == goalName {
			parts, _, err := scenario.Builtin().Parts(&scenario.Scenario{Values: []scenario.AxisValue{
				{Name: "goal", Value: goalName},
				{Name: "class", Value: strconv.Itoa(classSize)},
				{Name: "param", Value: strconv.Itoa(g.param)},
			}})
			return parts, err
		}
	}
	return nil, fmt.Errorf("unknown goal %q (%s)", goalName, certGoalNames())
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("goalcert", flag.ContinueOnError)
	var (
		goalName  = fs.String("goal", "printing", "goal to certify: "+certGoalNames())
		classSize = fs.Int("class", 8, "server class size")
		rounds    = fs.Int("rounds", 0, "horizon per certification run (0 = 60 × class size)")
		seed      = fs.Uint64("seed", 1, "root random seed")
		parallel  = fs.Int("parallel", 0, "certification worker pool size (0 = GOMAXPROCS); does not affect results")
		jsonOut   = fs.Bool("json", false, "emit the certification report as JSON instead of text")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *classSize < 1 {
		return fmt.Errorf("class size must be positive, got %d", *classSize)
	}

	parts, err := cast(*goalName, *classSize)
	if err != nil {
		return err
	}
	servers := make([]func() comm.Strategy, *classSize)
	for i := range servers {
		servers[i] = func() comm.Strategy { return parts.Member(i) }
	}
	// Probes are known-unhelpful servers that must NOT certify as helpful
	// (printing's ACKs without printing, which unsafe sensing would
	// trust). They are listed in name order so the report, and the
	// violation indices below, are identical run to run.
	probeNames := []string{"obstinate"}
	probes := []func() comm.Strategy{server.Obstinate}
	if *goalName == "printing" {
		probeNames = []string{"lying", "obstinate"}
		probes = []func() comm.Strategy{func() comm.Strategy { return &printing.LyingServer{} }, server.Obstinate}
	}
	horizon := *rounds
	if horizon <= 0 {
		horizon = 60 * *classSize
	}
	cfg := harness.CertConfig{MaxRounds: horizon, Seed: *seed, Envs: 1, Parallel: *parallel}
	report := &harness.CertReport{
		Goal:      *goalName,
		Class:     *classSize,
		Horizon:   horizon,
		Seed:      *seed,
		Safety:    []harness.Violation{},
		Viability: []harness.Violation{},
	}
	// 1. Helpfulness of every class member and every probe.
	tbl := &harness.Table{
		ID:      "CERT",
		Title:   fmt.Sprintf("helpfulness for goal %q (class size %d, horizon %d)", *goalName, *classSize, horizon),
		Columns: []string{"server", "helpful", "witness candidate"},
	}
	for i, mk := range servers {
		ok, witness := harness.HelpfulCompact(parts.Goal, mk, parts.Enum, cfg)
		w := "-"
		if ok {
			w = harness.I(witness)
		}
		name := fmt.Sprintf("class[%d]", i)
		tbl.AddRow(name, yesNo(ok), w)
		report.Servers = append(report.Servers, harness.ServerVerdict{
			Server: name, Helpful: ok, Witness: witness,
		})
	}
	for i, name := range probeNames {
		ok, _ := harness.HelpfulCompact(parts.Goal, probes[i], parts.Enum, cfg)
		tbl.AddRow("probe:"+name, yesNo(ok), "-")
		report.Servers = append(report.Servers, harness.ServerVerdict{
			Server: "probe:" + name, Probe: true, Helpful: ok, Witness: -1,
		})
		if ok {
			// Neither mode emits a report here: the sweep is
			// incomplete, and a truncated report would be
			// indistinguishable from a complete uncertified one.
			return fmt.Errorf("probe %q wrongly certified helpful", name)
		}
	}

	// 2. Safety against class ∪ probes; viability against the class.
	all := append(append([]func() comm.Strategy{}, servers...), probes...)
	report.Safety = append(report.Safety,
		harness.CertifySafetyCompact(parts.Goal, parts.Sense, parts.Enum, all, cfg)...)
	report.Viability = append(report.Viability,
		harness.CertifyViabilityCompact(parts.Goal, parts.Sense, parts.Enum, servers, cfg)...)
	report.Certified = len(report.Safety)+len(report.Viability) == 0

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		if err := tbl.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nsensing safety violations:    %d\n", len(report.Safety))
		for _, v := range report.Safety {
			fmt.Fprintln(stdout, " ", v)
		}
		fmt.Fprintf(stdout, "sensing viability violations: %d\n", len(report.Viability))
		for _, v := range report.Viability {
			fmt.Fprintln(stdout, " ", v)
		}
		if report.Certified {
			fmt.Fprintln(stdout, "\ncertified: sensing is safe and viable — Theorem 1 applies to this goal and class")
		}
	}
	if !report.Certified {
		return fmt.Errorf("certification failed: %d safety, %d viability violations",
			len(report.Safety), len(report.Viability))
	}
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
