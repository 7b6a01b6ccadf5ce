// The mutant ledger: each entry plants one known defect in one source file
// and names the tests that catch it, so every gate it lists is shown able
// to fail. TestMutantLedger copies the entry's file with its one
// replacement into a temp dir and runs go test -overlay on the guards'
// packages. It fails when the old text does not occur exactly once (a
// stale entry), when the mutant does not compile, when a named guard does
// not run, or when no named guard fails. Each entry rebuilds what its file
// reaches, so the ledger runs only when asked:
//
//	go test -count=1 -run '^TestMutantLedger$' . -args -ledger
package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var ledger = flag.Bool("ledger", false, "run TestMutantLedger, which builds and tests every entry of mutants")

// mutants is the ledger. A guard is a package directory from the module
// root and a top-level test in that package.
var mutants = []struct {
	name     string
	file     string
	old, new string
	guards   []string
}{
	{
		name:   "CompactUser never switches",
		file:   "internal/universal/universal.go",
		old:    "if !u.sense.Observe(rv) {",
		new:    "if !u.sense.Observe(rv) && false {",
		guards: []string{"./internal/universal:TestCompactUserSwitchesExactlyOnNegatives", "./internal/scenario:TestSweepObstinateNeverSucceeds"},
	},
	{
		name:   "printing's sensing always positive",
		file:   "internal/goals/printing/printing.go",
		old:    `v = parsed && task != "" && printed == task` + "\n",
		new:    `v = parsed && task != "" && printed == task || true` + "\n",
		guards: []string{"./internal/goals/printing:TestSenseSafety", "./internal/harness:TestCertifySafetyCompactAcceptsSafeSense"},
	},
	{
		name: "printing's verdict memo ignores its key",
		file: "internal/goals/printing/printing.go",
		old: "v, ok := verdict.Get(m)\n\t\tif !ok {\n\t\t\ttask, printed, parsed := ParseWorldMsg(m)\n" +
			"\t\t\tv = parsed && task != \"\" && printed == task\n\t\t\tverdict.Put(m, v)",
		new: "v, ok := verdict.Get(\"\")\n\t\tif !ok {\n\t\t\ttask, printed, parsed := ParseWorldMsg(m)\n" +
			"\t\t\tv = parsed && task != \"\" && printed == task\n\t\t\tverdict.Put(\"\", v)",
		guards: []string{"./internal/harness:TestCertifyViabilityCompact", "./cmd/goalcert:TestCertGoldens"},
	},
	{
		name:   "Result.Achieved off by one",
		file:   "internal/system/system.go",
		old:    "r.LastUnacceptable <= r.Rounds-window",
		new:    "r.LastUnacceptable < r.Rounds-window",
		guards: []string{".:TestFastPathParity", "./internal/goal:TestCompactAchievedConsistentWithCounts", "./internal/system:TestLazySnapshotLiveHookStillSkips"},
	},
	{
		name:   "TrialSeed ignores the scenario hash",
		file:   "internal/scenario/sweep.go",
		old:    "system.DeriveSeed(base^sc.Hash(), t)",
		new:    "system.DeriveSeed(base, t)",
		guards: []string{"./internal/scenario:TestSweepMatchesFullRecordingRerun", "./cmd/goalsweep:TestReportGoldens"},
	},
	{
		name: "fsm's Candidate.cmd ignores its key",
		file: "internal/goals/fsm/fsm.go",
		old: "msg, ok := c.cmd.Get(k)\n\tif !ok {\n" +
			"\t\tmsg = c.D.Encode(comm.Message(\"press \" + strconv.Itoa(k)))\n\t\tc.cmd.Put(k, msg)",
		new: "msg, ok := c.cmd.Get(0)\n\tif !ok {\n" +
			"\t\tmsg = c.D.Encode(comm.Message(\"press \" + strconv.Itoa(k)))\n\t\tc.cmd.Put(0, msg)",
		guards: []string{"./internal/goals/fsm:TestCandidatePressesPolicyKeyPerState", "./cmd/goalsweep:TestReportGoldens"},
	},
	{
		name:   "the reach gate's read rule off",
		file:   "reach_test.go",
		old:    "if !read[f] {",
		new:    "if false && !read[f] {",
		guards: []string{".:TestReachGateCatchesPlantedNames"},
	},
	{
		name:   "the reach gate's set rule off",
		file:   "reach_test.go",
		old:    "if tn.Exported() && f.Exported() && !set[f] {",
		new:    "if false && tn.Exported() && f.Exported() && !set[f] {",
		guards: []string{".:TestReachGateCatchesPlantedNames"},
	},
	{
		name:   "the engine skips its referee",
		file:   "internal/system/system.go",
		old:    "if cfg.Referee != nil && !cfg.Referee.AcceptableWorld(world) {",
		new:    "if false {",
		guards: []string{".:TestFastPathParity", "./internal/goal:TestCompactAchievedConsistentWithCounts", "./internal/system:TestLazySnapshotLiveHookStillSkips"},
	},
	{
		name:   "Bind leaves env unchecked",
		file:   "internal/scenario/registry.go",
		old:    "ax.Env < 0 || ax.Env >= n {",
		new:    "false {",
		guards: []string{"./internal/scenario:TestRegistryBindRejects"},
	},
}

func TestMutantLedger(t *testing.T) {
	if !*ledger {
		t.Skip("runs with -ledger")
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the old text %d times, want once", m.file, n)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.old), []byte(m.new), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(ov, overlay, 0o644); err != nil {
				t.Fatal(err)
			}

			var pkgs, tests []string
			guards := map[string]bool{} // "import/path Test"
			for _, g := range m.guards {
				pkg, test, _ := strings.Cut(g, ":")
				pkgs, tests = append(pkgs, pkg), append(tests, test)
				guards["repro"+strings.TrimPrefix(pkg, ".")+" "+test] = true
			}
			goTest := func(args ...string) ([]byte, error) {
				return exec.Command("go", append([]string{"test", "-vet=off", "-count=1", "-overlay", ov}, args...)...).CombinedOutput()
			}
			if out, err := goTest(append([]string{"-run", "^$"}, pkgs...)...); err != nil {
				t.Fatalf("the mutant does not compile:\n%s", out)
			}
			out, _ := goTest(append([]string{"-json", "-run", "^(" + strings.Join(tests, "|") + ")$"}, pkgs...)...)
			ran, failed := map[string]bool{}, map[string]bool{}
			for _, line := range bytes.Split(out, []byte("\n")) {
				var ev struct{ Action, Package, Test string }
				if json.Unmarshal(line, &ev) != nil {
					continue
				}
				ran[ev.Package+" "+ev.Test] = ran[ev.Package+" "+ev.Test] || ev.Action == "run"
				failed[ev.Package+" "+ev.Test] = failed[ev.Package+" "+ev.Test] || ev.Action == "fail"
			}
			caught := false
			for g := range guards {
				if !ran[g] {
					t.Errorf("guard %s did not run", g)
				}
				caught = caught || failed[g]
			}
			if !caught {
				t.Errorf("no guard caught the mutant:\n%s", out)
			}
		})
	}
}
