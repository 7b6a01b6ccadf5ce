package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// tracePaper runs the paper's experiments in process through
// experiments.ByID(id).Run, once untraced and once with a span and a
// MemStats reading around each, and checks every traced report against
// the goalsim report byte for byte. The engine's counters give the
// rounds and trials behind the tables.
func tracePaper(_ context.Context, b *bench, tr *tracer, wr *workloadRun) (map[string]float64, error) {
	data, err := os.ReadFile(wr.report)
	if err != nil {
		return nil, err
	}
	var want []struct {
		ID     string          `json:"id"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, err
	}
	cfg := experiments.Config{Quick: b.sz.QuickPaper, Seed: b.seed, Parallel: b.procs}

	sp := tr.start(2, 0, "experiments.untraced")
	t := time.Now()
	for _, r := range experiments.All() {
		if _, err := r.Run(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
	}
	untraced := time.Since(t)
	sp.end()

	L := make(map[string]float64)
	rounds0, trials0 := engineRounds.Value(), engineTrials.Value()
	var ms runtime.MemStats
	var mallocs uint64
	var traced time.Duration
	mismatched := len(want) != len(experiments.All())
	root := tr.start(1, 0, "paper")
	for i, r := range experiments.All() {
		runner, err := experiments.ByID(r.ID)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		sp := tr.start(1, root.id, "experiments."+r.ID)
		t := time.Now()
		rep, err := runner.Run(cfg)
		d := time.Since(t)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		runtime.ReadMemStats(&ms)
		traced += d
		mallocs += ms.Mallocs - mallocs0
		L["experiments."+r.ID+"_s"] = d.Seconds()
		L["experiments."+r.ID+"_alloc_mb"] = float64(ms.TotalAlloc-alloc0) / (1 << 20)

		got, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		var compact bytes.Buffer
		if i < len(want) {
			if err := json.Compact(&compact, want[i].Report); err != nil {
				return nil, err
			}
		}
		if i >= len(want) || want[i].ID != r.ID || !bytes.Equal(got, compact.Bytes()) {
			L["trace.replay_mismatches"]++
		}
	}
	root.end()
	if mismatched {
		L["trace.replay_mismatches"]++
	}
	rounds := engineRounds.Value() - rounds0
	L["system.rounds"] = float64(rounds)
	L["system.trials"] = float64(engineTrials.Value() - trials0)
	if rounds > 0 {
		L["system.allocs_per_round"] = float64(mallocs) / float64(rounds)
	}
	L["trace.overhead_share"] = traced.Seconds()/untraced.Seconds() - 1
	return L, nil
}
