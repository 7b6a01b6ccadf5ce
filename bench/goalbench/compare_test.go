package main

import "testing"

func result(xs ...float64) *metricResult {
	return &metricResult{summary: summarize(xs), Samples: xs}
}

// scale multiplies every sample, e.g. 1.2 for a 20% slowdown.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func e2eDef(name string) (metricDef, bool) {
	for _, d := range e2eMetrics {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

var wallDef, _ = e2eDef("wall_s")

func TestCompareFlagsTwentyPercentShiftWorse(t *testing.T) {
	base := []float64{2.00, 2.02, 1.98, 2.01, 1.99}
	tight := metricDef{Name: "tight_s", Better: "lower", Bound: 0.10}
	if v := verdict(tight, result(base...), result(scale(base, 1.2)...), true); v != worse {
		t.Errorf("20%% slower against a 10%% bound: verdict %q, want %q", v, worse)
	}
	if v := verdict(tight, result(base...), result(scale(base, 0.8)...), true); v != better {
		t.Errorf("20%% faster against a 10%% bound: verdict %q, want %q", v, better)
	}
	// With the shipped bounds, a shift inside wall_s's bound is the same
	// and one past it is worse.
	if v := verdict(wallDef, result(base...), result(scale(base, 1+wallDef.Bound-0.05)...), true); v != same {
		t.Errorf("shift inside the wall_s bound: verdict %q, want %q", v, same)
	}
	if v := verdict(wallDef, result(base...), result(scale(base, 1+wallDef.Bound+0.05)...), true); v != worse {
		t.Errorf("shift past the wall_s bound: verdict %q, want %q", v, worse)
	}
	rate, _ := e2eDef("scenarios_per_s")
	if v := verdict(rate, result(base...), result(scale(base, 1-rate.Bound-0.05)...), true); v != worse {
		t.Errorf("throughput drop past its bound: verdict %q, want %q", v, worse)
	}
}

func TestCompareIdenticalSamplesAreSame(t *testing.T) {
	base := []float64{2.00, 2.02, 1.98, 2.01, 1.99}
	for _, d := range e2eMetrics {
		if v := verdict(d, result(base...), result(base...), true); v != same {
			t.Errorf("%s on identical samples: verdict %q, want %q", d.Name, v, same)
		}
	}
}

func TestCompareWideSpreadIsUnresolved(t *testing.T) {
	// Quartiles 45% apart: a shift past the bound cannot be told from noise.
	a := result(1.0, 1.5, 0.9, 1.4, 0.8, 1.1)
	b := result(scale(a.Samples, 1.3)...)
	if v := verdict(wallDef, a, b, true); v != unresolved {
		t.Errorf("spread wider than the bound: verdict %q, want %q", v, unresolved)
	}
	// ...unless every run of one side beats every run of the other.
	c := result(scale(a.Samples, 2)...)
	if v := verdict(wallDef, a, c, true); v != worse {
		t.Errorf("every fresh run slower: verdict %q, want %q", v, worse)
	}
	if v := verdict(wallDef, c, a, true); v != better {
		t.Errorf("every fresh run faster: verdict %q, want %q", v, better)
	}
}

func TestCompareHostsAndFloors(t *testing.T) {
	base := []float64{2.00, 2.02, 1.98}
	if v := verdict(wallDef, result(base...), result(scale(base, 2)...), false); v != skipped {
		t.Errorf("timing across hosts: verdict %q, want %q", v, skipped)
	}
	failed, _ := e2eDef("failed_ratio")
	if v := verdict(failed, result(0, 0, 0), result(0, 0.01, 0), false); v != worse {
		t.Errorf("any increase of failed_ratio, even across hosts: verdict %q, want %q", v, worse)
	}
	setup, _ := e2eDef("setup_s")
	if v := verdict(setup, result(0.004, 0.004, 0.004), result(0.008, 0.008, 0.008), true); v != same {
		t.Errorf("setup doubling by 4ms is under the 50ms floor: verdict %q, want %q", v, same)
	}
	if v := verdict(setup, result(1.0, 1.0, 1.0), result(1.5, 1.5, 1.5), true); v != worse {
		t.Errorf("setup +0.5s: verdict %q, want %q", v, worse)
	}
}
