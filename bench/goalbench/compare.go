package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
	skipped    = "skipped: hosts differ"
)

// runCompare judges result file B against baseline A, workload by
// workload and metric by metric, and exits nonzero if anything is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "goalbench: usage: goalbench compare baseline.json fresh.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "goalbench:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "goalbench:", err)
		return 2
	}
	if a.Meta.Sizes != b.Meta.Sizes {
		fmt.Fprintf(stderr, "goalbench: the files measured different workload sizes (%+v vs %+v)\n", a.Meta.Sizes, b.Meta.Sizes)
		return 2
	}
	sameHost := a.Meta.Host == b.Meta.Host
	fmt.Fprintf(stdout, "baseline %s (commit %s, seed %d)\nfresh    %s (commit %s, seed %d)\n",
		args[0], a.Meta.Commit, a.Meta.Seed, args[1], b.Meta.Commit, b.Meta.Seed)
	if !sameHost {
		fmt.Fprintf(stdout, "hosts differ (%+v vs %+v): timing and memory metrics get no verdict\n", a.Meta.Host, b.Meta.Host)
	}
	counts := make(map[string]int)
	for _, wa := range a.Workloads {
		wb := findWorkload(b, wa.Name)
		if wb == nil {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n  %-16s %14s %14s %8s %8s %8s  %s\n", wa.Name,
			"metric", "baseline", "fresh", "change", "spreadA", "spreadB", "verdict")
		for _, d := range e2eMetrics {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			v := verdict(d, ma, mb, sameHost)
			counts[v]++
			fmt.Fprintf(stdout, "  %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n", d.Name,
				ma.Median, mb.Median, 100*relChange(ma.Median, mb.Median), 100*spread(ma), 100*spread(mb), v)
		}
		if wa.Layers != nil && wb.Layers != nil {
			fmt.Fprintln(stdout, "  per-layer (traced runs, no verdict):")
			for _, d := range layerMetrics {
				la, lb := wa.Layers[d.Name], wb.Layers[d.Name]
				if la != 0 || lb != 0 {
					fmt.Fprintf(stdout, "    %-34s %14.6g %14.6g %+7.1f%%\n", d.Name, la, lb, 100*relChange(la, lb))
				}
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d better, %d same, %d worse, %d unresolved, %d skipped\n",
		counts[better], counts[same], counts[worse], counts[unresolved], counts[skipped])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func findWorkload(r *resultFile, name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// spread is a run's interquartile range as a share of its median.
func spread(m *metricResult) float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// verdict compares fresh (b) against baseline (a). A change within the
// metric's bound is the same; beyond it, better or worse. When either
// side's spread exceeds the bound the medians cannot be trusted to that
// precision, and the verdict is unresolved unless every sample of one side
// beats every sample of the other. A metric with a floor treats changes
// and spreads below the floor as inside its bound.
func verdict(d metricDef, a, b *metricResult, sameHost bool) string {
	if d.Host && !sameHost {
		return skipped
	}
	sign := 1.0 // positive worsening means fresh is worse
	if d.Better == "higher" {
		sign = -1
	}
	if d.Bound == 0 {
		// Any worsening counts, so one bad rep must show: compare means.
		switch worsening := sign * (mean(b.Samples) - mean(a.Samples)); {
		case worsening > 0:
			return worse
		case worsening < 0:
			return better
		}
		return same
	}
	bound := max(d.Bound, d.Floor/math.Abs(a.Median))
	share := sign * (b.Median - a.Median) / math.Abs(a.Median)
	if spread(a) > bound || spread(b) > bound {
		switch {
		case beats(d, b.Samples, a.Samples):
			return better
		case beats(d, a.Samples, b.Samples) && share > bound:
			return worse
		}
		return unresolved
	}
	switch {
	case share > bound:
		return worse
	case share < -bound:
		return better
	}
	return same
}

// beats reports whether every sample of x is better than every sample of y.
func beats(d metricDef, x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	xs, ys := sorted(x), sorted(y)
	if d.Better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}
