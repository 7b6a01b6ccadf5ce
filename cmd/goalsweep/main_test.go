package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runSweep(t *testing.T, args ...string) string {
	t.Helper()
	out, _ := runSweep2(t, args...)
	return out
}

// runSweep2 also captures stderr (cache accounting).
func runSweep2(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var b, e strings.Builder
	if err := run(args, &b, &e); err != nil {
		t.Fatalf("goalsweep %v: %v\n%s%s", args, err, b.String(), e.String())
	}
	return b.String(), e.String()
}

// TestJSONByteIdenticalAcrossParallelism is the PR's acceptance criterion:
// over the ≥200-scenario default matrix, -json output at -parallel 1 is
// byte-identical to the default (GOMAXPROCS) pool.
func TestJSONByteIdenticalAcrossParallelism(t *testing.T) {
	t.Parallel()

	serial := runSweep(t, "-builtin", "default", "-json", "-parallel", "1")
	parallel := runSweep(t, "-builtin", "default", "-json")
	if serial != parallel {
		t.Fatal("-json output differs between -parallel 1 and the default pool")
	}
	if !strings.Contains(serial, `"scenarios": 288`) {
		t.Fatalf("default matrix is not the expected 288 scenarios:\n%s",
			serial[len(serial)-400:])
	}
}

func TestTableOutput(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "quick")
	for _, want := range []string{"SWEEP", "obstinate", "summary:", "12 scenarios"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "quick", "-csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 13 { // header + 12 scenarios
		t.Fatalf("CSV has %d lines, want 13:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "id,goal,class,server,noise,rounds,") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
}

func TestListDoesNotExecute(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "default", "-list", "-sample", "7")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("-list -sample 7 printed %d lines:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !strings.Contains(line, "goal=") {
			t.Fatalf("listing line missing coordinates: %s", line)
		}
	}
}

// TestSampleIsSubsetOfFullSweep checks that a sampled sweep reports
// exactly the rows the full sweep reports for those scenario IDs.
func TestSampleIsSubsetOfFullSweep(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "quick", "-csv")
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(full), "\n")[1:] {
		id := line[:strings.Index(line, ",")]
		rows[id] = line
	}
	sampled := runSweep(t, "-builtin", "quick", "-csv", "-sample", "4", "-sampleseed", "9")
	lines := strings.Split(strings.TrimSpace(sampled), "\n")[1:]
	if len(lines) != 4 {
		t.Fatalf("sampled %d rows, want 4", len(lines))
	}
	for _, line := range lines {
		id := line[:strings.Index(line, ",")]
		if rows[id] != line {
			t.Fatalf("sampled row for %s differs from full sweep:\n%s\n%s", id, line, rows[id])
		}
	}
}

func TestFilterRestrictsAxes(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "quick", "-csv",
		"-filter", "goal=treasure", "-filter", "server=0,-1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 1 goal × 2 servers × 2 noise
		t.Fatalf("filtered CSV has %d lines, want 5:\n%s", len(lines), out)
	}
	if strings.Contains(out, "printing") || strings.Contains(out, "obstinate") {
		t.Fatalf("filtered output leaked excluded values:\n%s", out)
	}

	var b strings.Builder
	if err := run([]string{"-builtin", "quick", "-filter", "bogus"}, &b, io.Discard); err == nil {
		t.Fatal("malformed -filter accepted")
	}
	if err := run([]string{"-builtin", "quick", "-filter", "goal=nosuch"}, &b, io.Discard); err == nil {
		t.Fatal("-filter with unknown value accepted")
	}
}

func TestSpecFileAndOverrides(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	spec := `{
		"name": "mini",
		"seeds": 1,
		"axes": [
			{"name": "goal", "values": ["treasure"]},
			{"name": "class", "values": ["3"]},
			{"name": "server", "values": ["0", "2"]},
			{"name": "rounds", "values": ["200"]}
		]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSweep(t, "-spec", path, "-csv", "-seeds", "3")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("spec sweep has %d lines, want 3:\n%s", len(lines), out)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",3,0,3,1,") { // trials=3, errors=0, successes=3, rate=1
			t.Fatalf("-seeds 3 override not applied: %s", line)
		}
	}

	var b strings.Builder
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &b, io.Discard); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestProfileFlags pins the -cpuprofile/-memprofile surface: a local
// sweep writes both profiles; serve and work refuse them.
func TestProfileFlags(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	runSweep(t, "-builtin", "quick", "-cpuprofile", cpu, "-memprofile", mem, "-out", filepath.Join(dir, "out.txt"))
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
	var b strings.Builder
	for _, args := range [][]string{
		{"serve", "-builtin", "quick", "-cpuprofile", cpu},
		{"serve", "-builtin", "quick", "-memprofile", mem},
		{"work", "-coordinator", "http://127.0.0.1:1", "-cpuprofile", cpu},
		{"work", "-coordinator", "http://127.0.0.1:1", "-memprofile", mem},
	} {
		if err := run(args, &b, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "profile a local run") {
			t.Fatalf("goalsweep %v accepted profiling flags: %v", args, err)
		}
	}
}

func TestMutuallyExclusiveOutputs(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := run([]string{"-builtin", "quick", "-json", "-csv"}, &b, io.Discard); err == nil {
		t.Fatal("-json -csv accepted together")
	}
	if err := run([]string{"-builtin", "nosuch"}, &b, io.Discard); err == nil {
		t.Fatal("unknown builtin accepted")
	}
	// A word the sweep mode cannot place — an unknown subcommand, or an
	// argument after the flags — must not end flag parsing and sweep the
	// default matrix.
	for _, args := range [][]string{{"benchcmp", "old.json", "new.json"}, {"-builtin", "quick", "extra"}} {
		if err := run(args, &b, io.Discard); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
			t.Fatalf("goalsweep %v: err = %v, want an unexpected-argument refusal", args, err)
		}
	}
}

// TestShardMergeByteIdentical is the CLI acceptance criterion for
// sharding: shard envelopes produced by -shard i/n -json merge into
// output byte-identical to a fresh unsharded -json run, at several shard
// counts.
func TestShardMergeByteIdentical(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "quick", "-json")
	dir := t.TempDir()
	for _, count := range []int{1, 2, 3, 5} {
		var files []string
		for i := 1; i <= count; i++ {
			path := filepath.Join(dir, fmt.Sprintf("c%d-s%d.json", count, i))
			runSweep(t, "-builtin", "quick",
				"-shard", fmt.Sprintf("%d/%d", i, count), "-json", "-out", path)
			files = append(files, path)
		}
		// Merge in reverse order: envelope order must not matter.
		for l, r := 0, len(files)-1; l < r; l, r = l+1, r-1 {
			files[l], files[r] = files[r], files[l]
		}
		merged := runSweep(t, append([]string{"merge", "-json"}, files...)...)
		if merged != full {
			t.Fatalf("%d-way shard merge differs from unsharded -json run", count)
		}
	}
}

// TestShardMergeCSVAndTable checks the merged non-JSON renderings also
// reproduce the unsharded output.
func TestShardMergeCSVAndTable(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	var files []string
	for i := 1; i <= 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		runSweep(t, "-builtin", "quick", "-shard", fmt.Sprintf("%d/3", i), "-json", "-out", path)
		files = append(files, path)
	}
	if got, want := runSweep(t, append([]string{"merge", "-csv"}, files...)...), runSweep(t, "-builtin", "quick", "-csv"); got != want {
		t.Fatal("merged -csv differs from unsharded -csv")
	}
	if got, want := runSweep(t, append([]string{"merge"}, files...)...), runSweep(t, "-builtin", "quick"); got != want {
		t.Fatalf("merged table differs from unsharded table:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestShardSampleCompose checks -shard partitions the -sample selection.
func TestShardSampleCompose(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "default", "-sample", "9", "-sampleseed", "4", "-json")
	dir := t.TempDir()
	var files []string
	for i := 1; i <= 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		runSweep(t, "-builtin", "default", "-sample", "9", "-sampleseed", "4",
			"-shard", fmt.Sprintf("%d/2", i), "-json", "-out", path)
		files = append(files, path)
	}
	merged := runSweep(t, append([]string{"merge", "-json"}, files...)...)
	if merged != full {
		t.Fatal("sharded sampled sweep merge differs from unsharded sampled run")
	}
}

func TestMergeRejectsMismatchedShards(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.json")
	s2 := filepath.Join(dir, "s2.json")
	runSweep(t, "-builtin", "quick", "-shard", "1/2", "-json", "-out", s1)
	// Same shard coordinates, different sweep (seeds override).
	runSweep(t, "-builtin", "quick", "-seeds", "2", "-shard", "2/2", "-json", "-out", s2)
	var b strings.Builder
	if err := run([]string{"merge", s1, s2}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "different sweeps") {
		t.Fatalf("mismatched shards merged: %v", err)
	}
	if err := run([]string{"merge", s1, s1}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard merged: %v", err)
	}
	if err := run([]string{"merge", s1}, &b, io.Discard); err == nil {
		t.Fatal("incomplete shard set merged")
	}
	if err := run([]string{"merge"}, &b, io.Discard); err == nil {
		t.Fatal("merge with no files accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"merge", garbage}, &b, io.Discard); err == nil {
		t.Fatal("garbage shard file accepted")
	}
}

// TestCacheWarmRunByteIdentical is the CLI acceptance criterion for
// caching: a warm -cache rerun emits byte-identical output and executes
// zero trials.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	t.Parallel()

	plain := runSweep(t, "-builtin", "quick", "-json")
	dir := filepath.Join(t.TempDir(), "store")
	cold, coldErr := runSweep2(t, "-builtin", "quick", "-json", "-cache", dir)
	if cold != plain {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !strings.Contains(coldErr, "cache: 0 hits, 12 misses, 12 trials executed") {
		t.Fatalf("cold cache accounting wrong: %q", coldErr)
	}
	warm, warmErr := runSweep2(t, "-builtin", "quick", "-json", "-cache", dir)
	if warm != plain {
		t.Fatal("warm cached run differs from uncached run")
	}
	if !strings.Contains(warmErr, "cache: 12 hits, 0 misses, 0 trials executed") {
		t.Fatalf("warm cache accounting wrong: %q", warmErr)
	}
	// Table and CSV renderings are warm-identical too.
	if got, want := runSweep(t, "-builtin", "quick", "-csv", "-cache", dir), runSweep(t, "-builtin", "quick", "-csv"); got != want {
		t.Fatal("warm cached -csv differs from uncached -csv")
	}
}

func TestFingerprintFlag(t *testing.T) {
	t.Parallel()

	fp := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-fingerprint"))
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", fp)
	}
	if again := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-fingerprint")); again != fp {
		t.Fatal("fingerprint unstable across invocations")
	}
	if other := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-seeds", "3", "-fingerprint")); other == fp {
		t.Fatal("-seeds override did not change the fingerprint")
	}
	if other := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-filter", "goal=printing", "-fingerprint")); other == fp {
		t.Fatal("-filter restriction did not change the fingerprint")
	}
}
