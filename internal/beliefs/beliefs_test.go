package beliefs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/commtest"
	"repro/internal/enumerate"
	"repro/internal/xrand"
)

func TestFromWeightsValidation(t *testing.T) {
	t.Parallel()

	if _, err := FromWeights(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := FromWeights([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := FromWeights([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := FromWeights([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestNormalization(t *testing.T) {
	t.Parallel()

	p, err := FromWeights([]float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Weight(0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Weight(0) = %v, want 0.25", got)
	}
	if got := p.Weight(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Weight(1) = %v, want 0.75", got)
	}
	if p.Weight(-1) != 0 || p.Weight(2) != 0 {
		t.Fatal("out-of-range weight not zero")
	}
}

func TestZipfShapes(t *testing.T) {
	t.Parallel()

	flat, err := Zipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flat.Weight(0)-flat.Weight(9)) > 1e-12 {
		t.Fatal("zipf(0) is not uniform")
	}

	steep, err := Zipf(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if steep.Weight(0) <= 4*steep.Weight(9) {
		t.Fatal("zipf(2) not concentrated on index 0")
	}
	if _, err := Zipf(0, 1); err == nil {
		t.Error("zipf with n=0 accepted")
	}
	if _, err := Zipf(5, -1); err == nil {
		t.Error("zipf with negative exponent accepted")
	}
}

func TestOrderDecreasing(t *testing.T) {
	t.Parallel()

	p, err := FromWeights([]float64{1, 5, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	order := p.Order()
	want := []int{1, 3, 2, 0} // ties broken by index
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Order = %v, want %v", order, want)
		}
	}
}

func TestOrderIsPermutation(t *testing.T) {
	t.Parallel()

	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ws := make([]float64, len(raw))
		for i, b := range raw {
			ws[i] = float64(b) + 1
		}
		p, err := FromWeights(ws)
		if err != nil {
			return false
		}
		seen := make([]bool, p.Len())
		for _, idx := range p.Order() {
			if idx < 0 || idx >= p.Len() || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMatchesPrior(t *testing.T) {
	t.Parallel()

	p, err := FromWeights([]float64{8, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	counts := make([]int, 3)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[p.Sample(r)]++
	}
	if counts[0] < 7*n/10 {
		t.Fatalf("index 0 sampled %d/%d, want ~80%%", counts[0], n)
	}
	if counts[1]+counts[2] == 0 {
		t.Fatal("tail never sampled")
	}
}

func TestExpectedRank(t *testing.T) {
	t.Parallel()

	// Point-ish mass on one index → expected rank near 1.
	concentrated, err := FromWeights([]float64{100, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := FromWeights([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if concentrated.ExpectedRank() >= uniform.ExpectedRank() {
		t.Fatalf("concentrated rank %v >= uniform rank %v",
			concentrated.ExpectedRank(), uniform.ExpectedRank())
	}
	// Uniform over n has expected rank (n+1)/2.
	if got := uniform.ExpectedRank(); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("uniform expected rank = %v, want 2.5", got)
	}
}

func TestReorder(t *testing.T) {
	t.Parallel()

	base := enumerate.FromFunc("base", 3, func(i int) comm.Strategy {
		return &commtest.Script{Outs: []comm.Outbox{{ToServer: comm.Message(rune('a' + i))}}}
	})
	p, err := FromWeights([]float64{1, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := Reorder(base, p)
	if err != nil {
		t.Fatal(err)
	}
	first := reordered.Strategy(0)
	first.Reset(xrand.New(1))
	out, err := first.Step(comm.Inbox{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ToServer != "b" {
		t.Fatalf("highest-mass strategy should come first, got %q", out.ToServer)
	}
}

func TestReorderSizeMismatch(t *testing.T) {
	t.Parallel()

	base := enumerate.FromFunc("base", 3, func(int) comm.Strategy { return &commtest.Silent{} })
	p, err := FromWeights([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reorder(base, p); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestQueriesAllocationFree pins the ISSUE 6 contract: once a Prior is
// built, Sample/Order/ExpectedRank are pure table lookups — zero heap
// allocations per call, no matter how often they repeat.
func TestQueriesAllocationFree(t *testing.T) {
	p, err := Zipf(64, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	var sink int
	var sinkF float64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			sink += p.Sample(r)
		}
		sink += p.Order()[0]
		sinkF += p.ExpectedRank()
	})
	if allocs != 0 {
		t.Fatalf("repeat Sample/Order/ExpectedRank allocated %v per run, want 0", allocs)
	}
	_ = sink
	_ = sinkF
}

// BenchmarkPriorQueries measures the steady-state query mix on a warm
// Prior; ReportAllocs keeps the zero-alloc property visible in bench
// output.
func BenchmarkPriorQueries(b *testing.B) {
	p, err := Zipf(64, 1.1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += p.Sample(r)
		sink += p.Order()[0]
		sink += int(p.ExpectedRank())
	}
	_ = sink
}
