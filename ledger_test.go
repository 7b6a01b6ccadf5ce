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
// root and a test in that package: a top-level test, or one subtest of it
// ("TestX/sub"), for which the whole top-level test runs.
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
		guards: []string{"./internal/universal:TestCompactUserSwitchesExactlyOnNegatives", "./internal/scenario:TestSweepObstinateNeverSucceeds", "./cmd/goalsweep:TestClaimsGoldens/quick"},
	},
	{
		name:   "printing's sensing always positive",
		file:   "internal/goals/printing/printing.go",
		old:    `v = parsed && task != "" && printed == task` + "\n",
		new:    `v = parsed && task != "" && printed == task || true` + "\n",
		guards: []string{"./internal/goals/printing:TestSenseSafety", "./internal/harness:TestCertifySafetyCompactAcceptsSafeSense", "./cmd/goalsweep:TestClaimsGoldens/quick"},
	},
	{
		name: "printing's verdict memo ignores its key",
		file: "internal/goals/printing/printing.go",
		old: "v, ok := verdict.Get(m)\n\t\tif !ok {\n\t\t\ttask, printed, parsed := ParseWorldMsg(m)\n" +
			"\t\t\tv = parsed && task != \"\" && printed == task\n\t\t\tverdict.Put(m, v)",
		new: "v, ok := verdict.Get(\"\")\n\t\tif !ok {\n\t\t\ttask, printed, parsed := ParseWorldMsg(m)\n" +
			"\t\t\tv = parsed && task != \"\" && printed == task\n\t\t\tverdict.Put(\"\", v)",
		guards: []string{"./internal/harness:TestCertifyViabilityCompact", "./cmd/goalsweep:TestClaimsGoldens/quick"},
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
		old: "msg := c.cmd[k]\n\tif msg == \"\" {\n" +
			"\t\tmsg = c.D.Encode(comm.Message(\"press \" + strconv.Itoa(k)))\n\t\tc.cmd[k] = msg",
		new: "msg := c.cmd[0]\n\tif msg == \"\" {\n" +
			"\t\tmsg = c.D.Encode(comm.Message(\"press \" + strconv.Itoa(k)))\n\t\tc.cmd[0] = msg",
		guards: []string{"./internal/goals/fsm:TestCandidatePressesPolicyKeyPerState", "./cmd/goalsweep:TestReportGoldens"},
	},
	{
		// Get and Put keys both: a Get-only mutant just disables the
		// memo, which is equivalent.
		name: "the class memo ignores the class",
		file: "internal/scenario/registry.go",
		old: "fam, ok := byClass[class]\n\tif !ok {\n\t\tvar err error\n" +
			"\t\tif fam, err = build(class); err != nil {\n\t\t\treturn nil, err\n\t\t}\n" +
			"\t\tif byClass == nil {\n\t\t\tbyClass = make(map[int]*dialect.Family)\n\t\t\tc.families[goal] = byClass\n\t\t}\n" +
			"\t\tbyClass[class] = fam",
		new: "fam, ok := byClass[0]\n\tif !ok {\n\t\tvar err error\n" +
			"\t\tif fam, err = build(class); err != nil {\n\t\t\treturn nil, err\n\t\t}\n" +
			"\t\tif byClass == nil {\n\t\t\tbyClass = make(map[int]*dialect.Family)\n\t\t\tc.families[goal] = byClass\n\t\t}\n" +
			"\t\tbyClass[0] = fam",
		guards: []string{"./cmd/goalsweep:TestReportGoldens/default", "./internal/scenario:TestSharedRegistryBindsAsFreshOnes"},
	},
	{
		name: "the class memo ignores the goal",
		file: "internal/scenario/registry.go",
		old: "byClass := c.families[goal]\n\tfam, ok := byClass[class]\n\tif !ok {\n\t\tvar err error\n" +
			"\t\tif fam, err = build(class); err != nil {\n\t\t\treturn nil, err\n\t\t}\n" +
			"\t\tif byClass == nil {\n\t\t\tbyClass = make(map[int]*dialect.Family)\n\t\t\tc.families[goal] = byClass",
		new: "byClass := c.families[\"\"]\n\tfam, ok := byClass[class]\n\tif !ok {\n\t\tvar err error\n" +
			"\t\tif fam, err = build(class); err != nil {\n\t\t\treturn nil, err\n\t\t}\n" +
			"\t\tif byClass == nil {\n\t\t\tbyClass = make(map[int]*dialect.Family)\n\t\t\tc.families[\"\"] = byClass",
		guards: []string{"./cmd/goalsweep:TestReportGoldens/default", "./internal/scenario:TestSharedRegistryBindsAsFreshOnes"},
	},
	{
		name: "the fsm space memo ignores the space",
		file: "internal/scenario/registry.go",
		old: "sp, ok := c.spaces[spelling]\n\tif !ok {\n\t\tvar err error\n" +
			"\t\tif sp, err = fsm.ParseSpace(spelling); err != nil {\n\t\t\treturn nil, err\n\t\t}\n" +
			"\t\tc.spaces[spelling] = sp",
		new: "sp, ok := c.spaces[\"\"]\n\tif !ok {\n\t\tvar err error\n" +
			"\t\tif sp, err = fsm.ParseSpace(spelling); err != nil {\n\t\t\treturn nil, err\n\t\t}\n" +
			"\t\tc.spaces[\"\"] = sp",
		guards: []string{"./internal/scenario:TestSharedRegistryBindsAsFreshOnes"},
	},
	{
		name:   "system.Run leaves one outbox field uncleared",
		file:   "internal/system/system.go",
		old:    "o.ToUser, o.ToServer, o.ToWorld = \"\", \"\", \"\"",
		new:    "o.ToUser, o.ToServer = \"\", \"\"",
		guards: []string{"./cmd/goalsweep:TestReportGoldens"},
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
	{
		name: "Bind applies Slow inside Misleading",
		file: "internal/scenario/registry.go",
		old: "\t\tif mislead > 0 {\n\t\t\ts = server.Misleading(s, mislead)\n\t\t}\n" +
			"\t\tif slow > 0 {\n\t\t\ts = server.Slow(s, slow)\n\t\t}\n",
		new: "\t\tif slow > 0 {\n\t\t\ts = server.Slow(s, slow)\n\t\t}\n" +
			"\t\tif mislead > 0 {\n\t\t\ts = server.Misleading(s, mislead)\n\t\t}\n",
		guards: []string{"./internal/scenario:TestBindWrapsServerInFixedOrder"},
	},
	{
		name: "transfer's Server.memo ignores its key",
		file: "internal/goals/transfer/transfer.go",
		old: "m, ok := s.memo.Get(in.FromUser)\n\tif !ok {\n\t\tfields := strings.SplitN(rest, \" \", 2)\n" +
			"\t\tif len(fields) != 2 {\n\t\t\treturn nil\n\t\t}\n" +
			"\t\tif _, err := strconv.Atoi(fields[0]); err != nil {\n\t\t\treturn nil\n\t\t}\n" +
			"\t\tm = comm.Outbox{\n\t\t\tToUser:  comm.Message(rspStored + \" \" + fields[0]),\n" +
			"\t\t\tToWorld: comm.Message(\"REL \" + rest),\n\t\t}\n\t\ts.memo.Put(in.FromUser, m)",
		new: "m, ok := s.memo.Get(\"\")\n\tif !ok {\n\t\tfields := strings.SplitN(rest, \" \", 2)\n" +
			"\t\tif len(fields) != 2 {\n\t\t\treturn nil\n\t\t}\n" +
			"\t\tif _, err := strconv.Atoi(fields[0]); err != nil {\n\t\t\treturn nil\n\t\t}\n" +
			"\t\tm = comm.Outbox{\n\t\t\tToUser:  comm.Message(rspStored + \" \" + fields[0]),\n" +
			"\t\t\tToWorld: comm.Message(\"REL \" + rest),\n\t\t}\n\t\ts.memo.Put(\"\", m)",
		guards: []string{"./internal/goals/transfer:TestServerRelay"},
	},
	{
		name: "delegation's Server.memo ignores its key",
		file: "internal/goals/delegation/delegation.go",
		old: "reply, ok := s.memo.Get(in.FromUser)\n\tif !ok {\n\t\tif ins, ok := ParseInstance(rest); ok {\n" +
			"\t\t\tif mask, ok := ins.Solve(); ok {\n" +
			"\t\t\t\treply = comm.Message(rspWitness + \" \" + strconv.FormatUint(mask, 10))\n" +
			"\t\t\t}\n\t\t}\n\t\ts.memo.Put(in.FromUser, reply)",
		new: "reply, ok := s.memo.Get(\"\")\n\tif !ok {\n\t\tif ins, ok := ParseInstance(rest); ok {\n" +
			"\t\t\tif mask, ok := ins.Solve(); ok {\n" +
			"\t\t\t\treply = comm.Message(rspWitness + \" \" + strconv.FormatUint(mask, 10))\n" +
			"\t\t\t}\n\t\t}\n\t\ts.memo.Put(\"\", reply)",
		guards: []string{"./internal/goals/delegation:TestServerSolvesOwnProtocol"},
	},
	{
		name: "delegation's Candidate.solveCmd ignores its key",
		file: "internal/goals/delegation/delegation.go",
		old: "cmd, ok := c.solveCmd.Get(c.instance)\n\t\tif !ok {\n" +
			"\t\t\tcmd = c.D.Encode(comm.Message(cmdSolve + \" \" + c.instance))\n\t\t\tc.solveCmd.Put(c.instance, cmd)",
		new: "cmd, ok := c.solveCmd.Get(\"\")\n\t\tif !ok {\n" +
			"\t\t\tcmd = c.D.Encode(comm.Message(cmdSolve + \" \" + c.instance))\n\t\t\tc.solveCmd.Put(\"\", cmd)",
		guards: []string{"./internal/goals/delegation:TestCandidateAsksForEachAnnouncedInstance"},
	},
	{
		name:   "claims skip the late rerun",
		file:   "internal/scenario/claims.go",
		old:    "var lateHorizons = []int{4, 16}",
		new:    "var lateHorizons = []int{}",
		guards: []string{"./cmd/goalsweep:TestClaimsGoldens/default"},
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
			guards := map[string]bool{} // "import/path Test[/subtest]"
			for _, g := range m.guards {
				pkg, test, _ := strings.Cut(g, ":")
				top, _, _ := strings.Cut(test, "/")
				pkgs, tests = append(pkgs, pkg), append(tests, top)
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
