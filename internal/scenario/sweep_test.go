package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/harness"
	"repro/internal/sensing"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/xrand"
)

// collectStats sweeps the matrix and returns every scenario's aggregate in
// order, plus the summary.
func collectStats(t *testing.T, m *Matrix, cfg SweepConfig) ([]*Stats, *Summary) {
	t.Helper()
	var stats []*Stats
	cfg.OnStats = func(st *Stats) error {
		stats = append(stats, st)
		return nil
	}
	sum, err := m.Sweep(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stats, sum
}

// TestSweepMatchesFullRecordingRerun reruns every trial of a sweep
// serially with full history recording and checks that the sweep's online
// aggregates (computed under RecordOff) match the classical
// CompactAchieved / LastUnacceptable evaluation bit for bit.
func TestSweepMatchesFullRecordingRerun(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seeds = 2
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	stats, sum := collectStats(t, m, SweepConfig{Parallel: 2})
	if int64(len(stats)) != m.Size() {
		t.Fatalf("%d stats for %d scenarios", len(stats), m.Size())
	}
	if sum.Errors != 0 {
		t.Fatalf("sweep reported %d errors", sum.Errors)
	}

	reg := Builtin()
	window := spec.window()
	for i, st := range stats {
		sc := m.At(int64(i))
		if sc.ID() != st.ID {
			t.Fatalf("stats %d carries ID %s, scenario is %s", i, st.ID, sc.ID())
		}
		bind, err := reg.Bind(sc)
		if err != nil {
			t.Fatal(err)
		}
		successes := 0
		var conv []float64
		for trial := 0; trial < spec.seeds(); trial++ {
			user, err := bind.User()
			if err != nil {
				t.Fatal(err)
			}
			res, err := system.Run(user, bind.Server(), bind.World(), system.Config{
				MaxRounds: bind.MaxRounds,
				Seed:      system.DeriveSeed(spec.baseSeed()^sc.Hash(), trial),
			})
			if err != nil {
				t.Fatal(err)
			}
			if goal.CompactAchieved(bind.Goal, res.History, window) {
				successes++
				conv = append(conv, float64(goal.LastUnacceptable(bind.Goal, res.History)))
			}
		}
		if st.Successes != successes {
			t.Fatalf("scenario %s: sweep saw %d successes, full recording %d",
				st.ID, st.Successes, successes)
		}
		want := Dist{
			Mean:   harness.Mean(conv),
			P50:    harness.Percentile(conv, 50),
			P99:    harness.Percentile(conv, 99),
			Max:    harness.Max(conv),
			Stddev: harness.Stddev(conv),
		}
		if st.Rounds != want {
			t.Fatalf("scenario %s: rounds dist %+v, full recording %+v",
				st.ID, st.Rounds, want)
		}
	}

	// The sweep saw some successes and some failures (obstinate rows),
	// or the comparison above was vacuous.
	if sum.Successes == 0 || sum.Successes == sum.Trials {
		t.Fatalf("degenerate sweep: %d/%d successes", sum.Successes, sum.Trials)
	}
}

// TestSweepParallelismInvariant checks the acceptance property: the
// serialized aggregates are byte-identical at -parallel 1 and a wide pool.
// The default matrix (288 scenarios at 2 seeds, 576 trials) spans several
// 256-trial chunks, so scenarios straddle chunk flushes.
func TestSweepParallelismInvariant(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if trials := m.Size() * int64(spec.seeds()); trials <= chunkTrials {
		t.Fatalf("default matrix runs %d trials, not more than one %d-trial chunk", trials, chunkTrials)
	}
	serialStats, serialSum := collectStats(t, m, SweepConfig{Parallel: 1})
	parStats, parSum := collectStats(t, m, SweepConfig{Parallel: 8})

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := marshal(serialStats), marshal(parStats); a != b {
		t.Fatalf("parallel sweep stats differ from serial:\n%s\n%s", a, b)
	}
	if a, b := marshal(serialSum), marshal(parSum); a != b {
		t.Fatalf("parallel sweep summary differs from serial:\n%s\n%s", a, b)
	}
}

// TestSweepSampleSubsetAgrees checks that sampling draws the same
// aggregates the full enumeration produces for those scenarios — the
// content-derived seed derivation makes a scenario's trials independent of
// its position or the presence of other scenarios.
func TestSweepSampleSubsetAgrees(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := collectStats(t, m, SweepConfig{Parallel: 2})
	byID := make(map[string]string, len(full))
	for _, st := range full {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		byID[st.ID] = string(b)
	}

	indices := m.Sample(5, 3)
	var sampled []*Stats
	if _, err := m.Sweep(indices, SweepConfig{
		Parallel: 2,
		OnStats: func(st *Stats) error {
			sampled = append(sampled, st)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(sampled) != len(indices) {
		t.Fatalf("%d stats for %d sampled scenarios", len(sampled), len(indices))
	}
	for _, st := range sampled {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != byID[st.ID] {
			t.Fatalf("sampled scenario %s differs from full enumeration:\n%s\n%s",
				st.ID, b, byID[st.ID])
		}
	}
}

// TestSweepSurfacesTrialErrors checks that failing trials are counted per
// scenario with the first failure's message preserved, instead of
// vanishing into aggregates of nothing.
func TestSweepSurfacesTrialErrors(t *testing.T) {
	t.Parallel()

	reg := Builtin()
	reg.Register("broken", func(Axes) (*Parts, error) {
		// A nil enumerator makes every universal-user construction
		// fail at trial time, not at bind time.
		return &Parts{
			Goal:   &failGoal{},
			Enum:   nil,
			Sense:  func() sensing.Sense { return sensing.Const(true) },
			Member: func(int) comm.Strategy { return server.Obstinate() },
		}, nil
	})
	spec := &Spec{
		Name: "broken",
		Axes: []Axis{
			{Name: "goal", Values: []string{"broken"}},
			{Name: "server", Values: Ints(0)},
			{Name: "rounds", Values: Ints(10)},
		},
		Seeds: 3,
	}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	var stats []*Stats
	sum, err := m.Sweep(nil, SweepConfig{
		Registry: reg,
		OnStats: func(st *Stats) error {
			stats = append(stats, st)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 3 || len(stats) != 1 {
		t.Fatalf("summary errors = %d (stats %d), want 3 (1)", sum.Errors, len(stats))
	}
	st := stats[0]
	if st.Errors != 3 || st.Successes != 0 {
		t.Fatalf("stats = %+v, want 3 errors, 0 successes", st)
	}
	if !strings.Contains(st.FirstError, "nil enumerator") {
		t.Fatalf("FirstError = %q, want the construction error", st.FirstError)
	}
}

// tiredServer completes n silent rounds and fails the next one.
type tiredServer struct{ n, step int }

func (s *tiredServer) Reset(*xrand.Rand) { s.step = 0 }
func (s *tiredServer) Step(comm.Inbox) (comm.Outbox, error) {
	if s.step == s.n {
		return comm.Outbox{}, fmt.Errorf("tired after %d rounds", s.n)
	}
	s.step++
	return comm.Outbox{}, nil
}

// TestSweepCountsRoundsOfErroredTrials checks that a trial failing mid-run
// still contributes the rounds it completed: class member i gives out
// after 5+i rounds, so each row's three errored trials executed 3(5+i)
// rounds, which its executedRounds and the summary's totalRounds count,
// and the row keeps the engine's error text.
func TestSweepCountsRoundsOfErroredTrials(t *testing.T) {
	t.Parallel()

	treasure := Builtin().builders["treasure"]
	reg := NewRegistry()
	reg.Register("tired", func(ax Axes) (*Parts, error) {
		parts, err := treasure(ax)
		if err != nil {
			return nil, err
		}
		parts.Member = func(i int) comm.Strategy { return &tiredServer{n: 5 + i} }
		return parts, nil
	})
	m, err := NewMatrix(&Spec{
		Name: "tired",
		Axes: []Axis{
			{Name: "goal", Values: []string{"tired"}},
			{Name: "class", Values: Ints(4)},
			{Name: "server", Values: Ints(0, 2)},
			{Name: "rounds", Values: Ints(50)},
		},
		Seeds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		stats, sum := collectStats(t, m, SweepConfig{Registry: reg, Parallel: par})
		if len(stats) != 2 {
			t.Fatalf("parallel %d: %d rows, want 2", par, len(stats))
		}
		for i, want := range []struct {
			rounds int64
			err    string
		}{
			{15, "system: server step (round 5): tired after 5 rounds"},
			{21, "system: server step (round 7): tired after 7 rounds"},
		} {
			st := stats[i]
			if st.Errors != 3 || st.ExecutedRounds != want.rounds || st.FirstError != want.err {
				t.Errorf("parallel %d row %d: %d errors, executedRounds %d, first error %q; want 3, %d, %q",
					par, i, st.Errors, st.ExecutedRounds, st.FirstError, want.rounds, want.err)
			}
		}
		if sum.TotalRounds != 36 || sum.Errors != 6 {
			t.Errorf("parallel %d: summary totalRounds %d, errors %d; want 36, 6", par, sum.TotalRounds, sum.Errors)
		}
	}
}

// failGoal is a minimal compact goal for the error-path test.
type failGoal struct{}

func (*failGoal) Name() string                    { return "broken" }
func (*failGoal) EnvChoices() int                 { return 1 }
func (*failGoal) NewWorld(goal.Env) goal.World    { return &failWorld{} }
func (*failGoal) Acceptable(comm.History) bool    { return false }
func (*failGoal) AcceptableWorld(goal.World) bool { return false }

type failWorld struct{}

func (*failWorld) Reset(*xrand.Rand) {}
func (*failWorld) Step(comm.Inbox) (comm.Outbox, error) {
	return comm.Outbox{}, nil
}
func (*failWorld) Snapshot() comm.WorldState { return "" }

// TestSweepObstinateNeverSucceeds pins the semantics of the unhelpful
// probe: no scenario against the obstinate server reports a success.
func TestSweepObstinateNeverSucceeds(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Restrict("goal", "printing"); err != nil {
		t.Fatal(err)
	}
	spec.Axes = append(spec.Axes, Axis{Name: "user", Values: []string{"universal"}})
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ax := spec.axis("server")
	ax.Values = []string{"obstinate"}
	m, err := NewMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	stats, sum := collectStats(t, m, SweepConfig{Parallel: 2})
	if sum.Successes != 0 {
		t.Fatalf("obstinate server produced %d successes", sum.Successes)
	}
	for _, st := range stats {
		if st.SuccessRate != 0 {
			t.Fatalf("scenario %s: success rate %g against obstinate", st.ID, st.SuccessRate)
		}
		if st.MeanSwitches == 0 {
			t.Fatalf("scenario %s: universal user never switched against obstinate", st.ID)
		}
	}
}

// chunkedSweep builds a 1,000-scenario sweep of one-trial treasure runs —
// four chunks — over a registry that counts its binds and cannot bind the
// scenario whose param is failAt.
func chunkedSweep(t *testing.T, failAt int) (*Matrix, *Registry, *atomic.Int64) {
	t.Helper()
	treasure := Builtin().builders["treasure"]
	reg := NewRegistry()
	binds := new(atomic.Int64)
	reg.Register("counted", func(ax Axes) (*Parts, error) {
		binds.Add(1)
		if ax.Param == failAt {
			return nil, fmt.Errorf("param %d has no binding", ax.Param)
		}
		ax.Param = 0
		return treasure(ax)
	})
	params := make([]int, 1000)
	for i := range params {
		params[i] = i
	}
	m, err := NewMatrix(&Spec{
		Name: "chunked",
		Axes: []Axis{
			{Name: "goal", Values: []string{"counted"}},
			{Name: "param", Values: Ints(params...)},
			{Name: "rounds", Values: Ints(20)},
		},
		Seeds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg, binds
}

// TestSweepBuildErrorAfterEmittedChunks checks the sweep's error order
// with the next chunk built beside the running one: a scenario of chunk 3
// that cannot be bound, or a selection index out of range there, fails
// the sweep after exactly chunks 1 and 2 are emitted, in order, with the
// error a chunk-by-chunk sweep returns. The bind counts pin the overlap:
// each chunk is bound before the chunk ahead of it is emitted.
func TestSweepBuildErrorAfterEmittedChunks(t *testing.T) {
	t.Parallel()

	all := make([]int64, 1000)
	for i := range all {
		all[i] = int64(i)
	}
	outOfRange := append([]int64(nil), all...)
	outOfRange[600] = 5000
	for _, tc := range []struct {
		name    string
		failAt  int
		indices []int64
		err     string
		binds   map[int]int64 // row → binds done when it is emitted
	}{
		{"bind", 600, nil, `scenario: goal "counted": param 600 has no binding`,
			map[int]int64{0: 512, 256: 601}},
		{"index", -1, outOfRange, "scenario: sweep index 5000 out of range [0,1000)",
			map[int]int64{0: 512, 256: 600}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, reg, binds := chunkedSweep(t, tc.failAt)
			var rows []int
			_, err := m.Sweep(tc.indices, SweepConfig{Registry: reg, Parallel: 2, OnStats: func(st *Stats) error {
				p, err := st.AxisInt("param")
				if err != nil {
					return err
				}
				if want, ok := tc.binds[len(rows)]; ok {
					if got := binds.Load(); got != want {
						t.Errorf("row %d emitted after %d binds, want %d", len(rows), got, want)
					}
				}
				rows = append(rows, p)
				return nil
			}})
			if err == nil || err.Error() != tc.err {
				t.Fatalf("sweep error %v, want %s", err, tc.err)
			}
			if len(rows) != 2*chunkTrials {
				t.Fatalf("%d rows emitted before the error, want chunks 1-2 (%d rows)", len(rows), 2*chunkTrials)
			}
			for i, p := range rows {
				if p != i {
					t.Fatalf("row %d is param %d: chunks emitted out of order", i, p)
				}
			}
		})
	}
}

// TestSweepOnStatsErrorStops checks that an OnStats error ends the sweep
// at once, with that error, with no further OnStats call and with no
// goroutine left behind — the chunk built beside the failing one
// included.
func TestSweepOnStatsErrorStops(t *testing.T) {
	m, reg, _ := chunkedSweep(t, -1)
	before := runtime.NumGoroutine()
	stop := errors.New("stop at row 300")
	calls := 0
	_, err := m.Sweep(nil, SweepConfig{Registry: reg, Parallel: 2, OnStats: func(*Stats) error {
		calls++
		if calls == 300 {
			return stop
		}
		return nil
	}})
	if err != stop {
		t.Fatalf("sweep error %v, want %v", err, stop)
	}
	if calls != 300 {
		t.Fatalf("OnStats called %d times, want 300", calls)
	}
	// An exiting goroutine is counted until it is gone; wait for it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweep, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
