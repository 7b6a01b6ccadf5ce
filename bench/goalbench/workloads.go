package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

// workload is one set of inputs the benchmark runs through the real
// CLIs. README.md records why each exists and which layers it stresses.
type workload struct {
	name string
	why  string

	// rep runs one repetition: its set-up, then the timed part.
	rep func(b *bench, ctx context.Context) (*rep, error)

	// reference, when set, computes the report digest every rep must
	// match at any seed; otherwise the warm-up rep's report is the
	// reference.
	reference func(b *bench, ctx context.Context) (string, error)

	// counts parses the reference report.
	counts func(path string) (*reportCounts, error)

	// trace runs the workload once in process with spans around the calls
	// into each layer and returns the layer metrics it reaches.
	trace func(ctx context.Context, b *bench, tr *tracer, wr *workloadRun) (map[string]float64, error)

	// rounds marks workloads whose rounds_per_s is defined: the ones that
	// execute the rounds their report covers in the timed part.
	rounds bool
}

// rep is one repetition's measurements.
type rep struct {
	wall   float64   // seconds, call to finished report
	setup  []float64 // seconds, one or more set-up timings
	rssMB  float64   // largest peak RSS among the timed part's processes
	out    []byte    // the report, as the CLI printed it on standard output
	digest string    // sha256 of the report
	stolen float64   // share of the machine's CPU time the hypervisor took during the rep
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// sizes fixes how much work one rep does. smokeSizes exercises every path
// on tiny selections.
type sizes struct {
	StockSeeds   int  `json:"stockSeeds"`
	FamilySample int  `json:"familySample"`
	FleetSample  int  `json:"fleetSample"`
	FleetShards  int  `json:"fleetShards"`
	QuickPaper   bool `json:"quickPaper"`
}

// A full-size rep takes about a second (fleet two, paper four) on a 2-CPU
// host, so a run of BENCHMARK.json's length holds a dozen or more reps of
// a sweep and their median is steady.
var (
	fullSizes  = sizes{StockSeeds: 24, FamilySample: 10000, FleetSample: 4000, FleetShards: 125}
	smokeSizes = sizes{StockSeeds: 1, FamilySample: 200, FleetSample: 64, FleetShards: 8, QuickPaper: true}
)

// setupTries is how many times a rep repeats a set-up that costs
// milliseconds; process start jitter is a large share of one such
// timing, and the median over every try of the run is steady.
const setupTries = 5

var workloads = []*workload{
	{
		name: "stock-rounds",
		why:  "round-heavy: 288 stock scenarios x 24 trials x 800 rounds through engine, goals, CompactUser and server stacks; no fleet",
		rep: func(b *bench, ctx context.Context) (*rep, error) {
			return b.sweepRep(ctx, b.stockArgs())
		},
		counts: sweepCounts,
		trace:  traceStockRounds,
		rounds: true,
	},
	{
		name: "family-sample",
		why:  "scenario-heavy: 10,000 sampled family scenarios x 1 trial through adversary wrappers and generated fsm goals; per-scenario decode, bind, fold and render",
		rep: func(b *bench, ctx context.Context) (*rep, error) {
			return b.sweepRep(ctx, b.familyArgs(b.sz.FamilySample))
		},
		counts: sweepCounts,
		trace:  traceFamilySample,
		rounds: true,
	},
	{
		name:      "fleet",
		why:       "coordination-heavy: 4,000 family scenarios in 125 shards of 32 through serve -service, nproc closed-loop workers, submit and watch",
		rep:       (*bench).fleetRep,
		reference: (*bench).fleetReference,
		counts:    sweepCounts,
		trace:     traceFleet,
		rounds:    true,
	},
	{
		name:   "paper",
		why:    "the paper's 13 tables via goalsim: enumeration-heavy (T1 most of it), bypasses scenario, cache and dist; the one large-memory workload",
		rep:    (*bench).paperRep,
		counts: paperCounts,
		trace:  tracePaper,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// The benchmark's own copies of the stock "default" and "family" specs:
// editing a builtin cannot silently change a workload.
func defaultSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "default",
		Axes: []scenario.Axis{
			{Name: "goal", Values: []string{"control", "printing", "transfer", "treasure"}},
			{Name: "class", Values: scenario.Ints(4, 8)},
			{Name: "server", Values: []string{"0", "-1", "obstinate"}},
			{Name: "noise", Values: scenario.Floats(0, 0.1, 0.3)},
			{Name: "slow", Values: scenario.Ints(0, 2)},
			{Name: "patience", Values: scenario.Ints(0, 16)},
			{Name: "rounds", Values: scenario.Ints(800)},
		},
		Seeds:    2,
		BaseSeed: 1,
		Window:   10,
	}
}

func familySpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "family",
		Blocks: []scenario.Block{
			{Axes: []scenario.Axis{
				{Name: "goal", Values: []string{"fsm"}},
				{Name: "space", Values: []string{"2x3x2"}},
				{Name: "machine", Values: scenario.IntRange(0, 4095)},
				{Name: "class", Values: scenario.Ints(4)},
				{Name: "server", Values: []string{"0", "-1"}},
				{Name: "drift", Values: scenario.Floats(0, 0.25)},
				{Name: "byzantine", Values: scenario.Ints(0, 2)},
				{Name: "mislead", Values: scenario.Floats(0, 0.25)},
				{Name: "noise", Values: scenario.Floats(0, 0.1)},
				{Name: "rounds", Values: scenario.Ints(400)},
			}},
			{Axes: []scenario.Axis{
				{Name: "goal", Values: []string{"control", "printing", "transfer"}},
				{Name: "class", Values: scenario.Ints(4, 8)},
				{Name: "server", Values: []string{"0", "-1"}},
				{Name: "byzantine", Values: scenario.Ints(0, 2, 4)},
				{Name: "mislead", Values: scenario.Floats(0, 0.1, 0.25)},
				{Name: "rounds", Values: scenario.Ints(400)},
			}},
		},
		Seeds:    1,
		BaseSeed: 1,
		Window:   10,
	}
}

// writeSpecs puts the spec files the CLIs read into the work directory.
func (b *bench) writeSpecs() error {
	for name, spec := range map[string]*scenario.Spec{"default.json": defaultSpec(), "family.json": familySpec()} {
		data, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(b.work, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cat copies args and appends more, so argument lists never share a
// backing array.
func cat(args []string, more ...string) []string {
	return append(append([]string(nil), args...), more...)
}

func (b *bench) seedArg() string { return strconv.FormatUint(b.seed, 10) }

func (b *bench) stockArgs() []string {
	return []string{"-spec", "default.json", "-seeds", strconv.Itoa(b.sz.StockSeeds),
		"-baseseed", b.seedArg(), "-parallel", strconv.Itoa(b.procs)}
}

func (b *bench) familyArgs(n int) []string {
	return []string{"-spec", "family.json", "-sample", strconv.Itoa(n), "-sampleseed", b.seedArg(),
		"-baseseed", b.seedArg(), "-parallel", strconv.Itoa(b.procs)}
}

// sweepRep times one local goalsweep run; its set-up is the same command
// with -fingerprint, which resolves the spec and matrix and stops.
func (b *bench) sweepRep(ctx context.Context, args []string) (*rep, error) {
	r := &rep{}
	for i := 0; i < setupTries; i++ {
		p, err := b.run(ctx, "goalsweep", cat(args, "-json", "-fingerprint")...)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, p.wall.Seconds())
	}
	p, err := b.run(ctx, "goalsweep", cat(args, "-json")...)
	if err != nil {
		return nil, err
	}
	r.wall, r.rssMB = p.wall.Seconds(), p.rssMB()
	r.setReport(p)
	return r, nil
}

// fleetRep launches a sweep service (the set-up, to /status OK; timed
// setupTries times, keeping the last service), submits the sample, starts
// nproc closed-loop workers and times submit to the watched report.
// Workers start after the submit because -exit-when-idle workers leave an
// empty queue at once.
func (b *bench) fleetRep(ctx context.Context) (*rep, error) {
	state, err := os.MkdirTemp(b.work, "state-")
	if err != nil {
		return nil, err
	}
	defer removeAll(state)

	r := &rep{}
	for i := 1; i < setupTries; i++ {
		p, _, err := b.serve(ctx, state)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(p.begin).Seconds())
		p.stop()
	}
	serve, url, err := b.serve(ctx, state)
	if err != nil {
		return nil, err
	}
	defer serve.stop()
	r.setup = append(r.setup, time.Since(serve.begin).Seconds())

	begin := time.Now()
	submit, err := b.run(ctx, "goalsweep", "submit", "-coordinator", url, "-spec", "family.json",
		"-sample", strconv.Itoa(b.sz.FleetSample), "-sampleseed", b.seedArg(), "-baseseed", b.seedArg(),
		"-shards", strconv.Itoa(b.sz.FleetShards))
	if err != nil {
		return nil, err
	}
	job := strings.TrimSpace(submit.stdout.String())
	workers := make([]*proc, 0, b.procs)
	defer func() {
		for _, w := range workers {
			w.stop()
		}
	}()
	for i := 0; i < b.procs; i++ {
		w, err := b.start(ctx, "goalsweep", "work", "-coordinator", url, "-parallel", "1", "-poll", "20ms", "-exit-when-idle")
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	watch, err := b.run(ctx, "goalsweep", "watch", "-coordinator", url, "-json", job)
	if err != nil {
		return nil, err
	}
	r.wall = time.Since(begin).Seconds()
	for _, w := range workers {
		if err := w.wait(); err != nil {
			return nil, err
		}
	}
	serve.stop()
	r.rssMB = max(serve.rssMB(), submit.rssMB(), watch.rssMB())
	for _, w := range workers {
		r.rssMB = max(r.rssMB, w.rssMB())
	}
	r.setReport(watch)
	return r, nil
}

// serve launches a sweep service over the state directory and returns
// once GET /status answers 200.
func (b *bench) serve(ctx context.Context, state string) (*proc, string, error) {
	p, err := b.start(ctx, "goalsweep", "serve", "-service", "-state", filepath.Base(state), "-listen", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	url, err := awaitURL(ctx, p)
	if err == nil {
		err = awaitStatus(ctx, url)
	}
	if err != nil {
		p.stop()
		return nil, "", err
	}
	return p, url, nil
}

// fleetReference runs the fleet's selection locally: the distributed
// report must be byte-identical to it.
func (b *bench) fleetReference(ctx context.Context) (string, error) {
	p, err := b.run(ctx, "goalsweep", cat(b.familyArgs(b.sz.FleetSample), "-json")...)
	if err != nil {
		return "", err
	}
	return digest(p.stdout.Bytes()), nil
}

// awaitURL scrapes the service address from the "at http://" line serve
// prints once it listens.
func awaitURL(ctx context.Context, p *proc) (string, error) {
	found := p.stderr.watch("at http://")
	select {
	case line := <-found:
		_, rest, _ := strings.Cut(line, "at ")
		url, _, _ := strings.Cut(rest, " ")
		return url, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening: %s", p.name, p.stderr.tail())
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("%s printed no address within 30s", p.name)
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// awaitStatus polls GET /status until the service answers 200.
func awaitStatus(ctx context.Context, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/status", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/status not OK within 30s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// paperRep times goalsim over every experiment; its set-up is
// goalsim -list, process start plus the experiment registry.
func (b *bench) paperRep(ctx context.Context) (*rep, error) {
	r := &rep{}
	for i := 0; i < setupTries; i++ {
		p, err := b.run(ctx, "goalsim", "-list")
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, p.wall.Seconds())
	}
	args := []string{"-experiment", "all", "-seed", b.seedArg(), "-parallel", strconv.Itoa(b.procs), "-json"}
	if b.sz.QuickPaper {
		args = append(args, "-quick")
	}
	p, err := b.run(ctx, "goalsim", args...)
	if err != nil {
		return nil, err
	}
	r.wall, r.rssMB = p.wall.Seconds(), p.rssMB()
	r.setReport(p)
	return r, nil
}

// setReport takes the report a CLI printed on standard output. Reports go
// to a pipe rather than a file, so no disk writeback lands in a timing.
func (r *rep) setReport(p *proc) {
	r.out = p.stdout.Bytes()
	r.digest = digest(r.out)
}

func digest(report []byte) string {
	sum := sha256.Sum256(report)
	return hex.EncodeToString(sum[:])
}

// reportCounts is what the benchmark reads back from a report.
type reportCounts struct {
	ops       int   // operations: trials of a sweep, experiments of goalsim
	scenarios int   // report rows: sweep scenarios, or paper table rows
	errors    int   // trial errors the report itself records
	rounds    int64 // rounds the report accounts for
	switches  float64
	successes map[string]int // per scenario ID, for the replay check
	bytes     int64
}

func sweepCounts(path string) (*reportCounts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Scenarios []struct {
			ID           string  `json:"id"`
			Trials       int     `json:"trials"`
			Errors       int     `json:"errors"`
			Successes    int     `json:"successes"`
			MeanSwitches float64 `json:"meanSwitches"`
		} `json:"scenarios"`
		Summary struct {
			Scenarios   int   `json:"scenarios"`
			Trials      int   `json:"trials"`
			Errors      int   `json:"errors"`
			TotalRounds int64 `json:"totalRounds"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c := &reportCounts{
		ops:       rep.Summary.Trials,
		scenarios: rep.Summary.Scenarios,
		errors:    rep.Summary.Errors,
		rounds:    rep.Summary.TotalRounds,
		successes: make(map[string]int, len(rep.Scenarios)),
		bytes:     int64(len(data)),
	}
	var switches float64
	for _, st := range rep.Scenarios {
		c.successes[st.ID] = st.Successes
		// meanSwitches averages over the scenario's error-free trials.
		switches += st.MeanSwitches * float64(st.Trials-st.Errors)
	}
	if c.ops > 0 {
		c.switches = switches / float64(c.ops)
	}
	if len(rep.Scenarios) != c.scenarios {
		return nil, fmt.Errorf("%s: summary counts %d scenarios, report lists %d", path, c.scenarios, len(rep.Scenarios))
	}
	return c, nil
}

func paperCounts(path string) (*reportCounts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exps []struct {
		ID     string `json:"id"`
		Report struct {
			Tables []struct {
				Rows [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"report"`
	}
	if err := json.Unmarshal(data, &exps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c := &reportCounts{ops: len(exps), bytes: int64(len(data))}
	for _, e := range exps {
		for _, t := range e.Report.Tables {
			c.scenarios += len(t.Rows)
		}
	}
	return c, nil
}
