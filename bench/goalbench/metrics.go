package main

import "repro/internal/experiments"

// metricDef describes one metric: its unit, which direction is better
// and, for end-to-end metrics, the bound by which its median may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound is the tolerated worsening as a share of the baseline median;
	// 0 means any worsening counts. Floor is an absolute worsening below
	// which the metric never counts as worse: setup times of a few
	// milliseconds move by more than their bound on process-start jitter.
	Bound float64
	Floor float64

	// Host marks metrics that depend on the machine (timings, memory):
	// compare gives them a verdict only when both runs come from the same
	// host fingerprint.
	Host bool

	// Listed marks the end-to-end metrics named in BENCHMARK.json. They
	// exist on every workload and are never zero; rounds_per_s (absent on
	// paper) and failed_ratio (zero on a healthy run) are reported here and
	// in result files only.
	Listed bool
}

// e2eMetrics are the user-visible metrics of every workload, measured
// with tracing off.
var e2eMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true, Listed: true},
	{Name: "rounds_per_s", Unit: "rounds/s", Better: "higher", Bound: 0.25, Host: true},
	{Name: "scenarios_per_s", Unit: "scenarios/s", Better: "higher", Bound: 0.25, Host: true, Listed: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05, Host: true, Listed: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Host: true, Listed: true},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},
}

// layerMetrics are the per-layer metrics of the traced run, named by
// module. Every traced run reports all of them; a layer the workload
// never reaches reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{Name: "system.round_ns", Unit: "ns", Better: "lower"},
		{Name: "system.trial_setup_ns", Unit: "ns", Better: "lower"},
		{Name: "system.allocs_per_round", Unit: "allocs/round", Better: "lower"},
		{Name: "system.self_ns_per_round", Unit: "ns", Better: "lower"},
		{Name: "system.trials", Unit: "count", Better: "higher"},
		{Name: "system.rounds", Unit: "count", Better: "higher"},
		{Name: "universal.user_step_ns", Unit: "ns", Better: "lower"},
		{Name: "server.step_ns", Unit: "ns", Better: "lower"},
		{Name: "goal.judge_ns", Unit: "ns", Better: "lower"},
		{Name: "universal.switches_per_trial", Unit: "count", Better: "lower"},
		{Name: "scenario.at_ns", Unit: "ns", Better: "lower"},
		{Name: "scenario.bind_ns", Unit: "ns", Better: "lower"},
		{Name: "scenario.sample_ms", Unit: "ms", Better: "lower"},
		{Name: "scenario.sweep_self_share", Unit: "ratio", Better: "lower"},
		{Name: "scenario.envelope_bytes", Unit: "bytes", Better: "lower"},
		{Name: "scenario.merge_ms", Unit: "ms", Better: "lower"},
		{Name: "goalsweep.outside_sweep_s", Unit: "s", Better: "lower"},
		{Name: "goalsweep.report_mb", Unit: "MB", Better: "lower"},
		{Name: "dist.lease_rtt_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "dist.lease_rtt_ms_p90", Unit: "ms", Better: "lower"},
		{Name: "dist.submit_rtt_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "dist.submit_rtt_ms_p90", Unit: "ms", Better: "lower"},
		{Name: "dist.sse_lag_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "dist.sse_lag_ms_p90", Unit: "ms", Better: "lower"},
		{Name: "dist.worker_prep_ms", Unit: "ms", Better: "lower"},
		{Name: "dist.shard_compute_ms", Unit: "ms", Better: "lower"},
		{Name: "dist.queue_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "dist.fleet_busy_share", Unit: "ratio", Better: "higher"},
		{Name: "dist.failed_request_ratio", Unit: "ratio", Better: "lower"},
		{Name: "dist.wasted_lease_ratio", Unit: "ratio", Better: "lower"},
		{Name: "dist.accounted_share", Unit: "ratio", Better: "higher"},
	}
	for _, r := range experiments.All() {
		defs = append(defs,
			metricDef{Name: "experiments." + r.ID + "_s", Unit: "s", Better: "lower"},
			metricDef{Name: "experiments." + r.ID + "_alloc_mb", Unit: "MB", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.replay_mismatches", Unit: "count", Better: "lower"})
}()
