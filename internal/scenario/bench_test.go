package scenario

import "testing"

// BenchmarkSweep measures sweep throughput on the quick built-in matrix.
func BenchmarkSweep(b *testing.B) {
	spec, err := BuiltinSpec("quick")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		sum, err := m.Sweep(nil, SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += sum.TotalRounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkAdversarialSweep measures throughput with the full adversary
// stack engaged — Byzantine corruption, misleading feedback and dialect
// drift over the composed adversarial builtin. The root alloc_test.go
// pins the same matrix's allocations per round, so an allocation
// creeping into the wrapper hot path fails go test.
func BenchmarkAdversarialSweep(b *testing.B) {
	spec, err := BuiltinSpec("adversarial")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMatrix(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		sum, err := m.Sweep(nil, SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += sum.TotalRounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}
