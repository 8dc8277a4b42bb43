package main

// metricDecl declares one reported metric exactly as BENCHMARK.json
// lists it; a test keeps the two in sync.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports all of them (README.md defines each per workload).
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"campaign_s", "s", "lower"},
	{"sim_p50_ms", "ms", "lower"},
	{"sim_p90_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
	{"ok_frac", "ratio", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayerMetrics are the traced run's numbers, one group per module. A
// layer that a workload does not reach reports 0.
var perLayerMetrics = []metricDecl{
	{"sim.run_until_us", "us", "lower"},
	{"sim.collect_us", "us", "lower"},
	{"sim.build_ms", "ms", "lower"},
	{"sim.clone_us", "us", "lower"},

	{"oracle.sample_next_ms", "ms", "lower"},
	{"oracle.calls", "count", "lower"},
	{"oracle.share", "ratio", "lower"},

	{"dvfs.run_ms.truth", "ms", "lower"},
	{"dvfs.run_ms.notruth", "ms", "lower"},
	{"dvfs.epochs", "count", "lower"},
	{"dvfs.decide_us", "us", "lower"},
	{"dvfs.other_share", "ratio", "lower"},

	{"orchestrate.miss_overhead_us", "us", "lower"},
	{"orchestrate.hit_us", "us", "lower"},
	{"orchestrate.hit_frac", "ratio", "higher"},
	{"orchestrate.queue_wait_ms", "ms", "lower"},
	{"orchestrate.busy_frac", "ratio", "higher"},

	{"serve.handler_ms.cold", "ms", "lower"},
	{"serve.handler_ms.hot", "ms", "lower"},
	{"serve.admit_wait_ms", "ms", "lower"},
	{"serve.self_ms.cold", "ms", "lower"},
	{"serve.backend_runs", "count", "lower"},
	{"serve.hot_hits", "count", "higher"},
	{"serve.short_circuits", "count", "higher"},
	{"serve.not_modified", "count", "higher"},
	{"serve.dedup_ratio", "ratio", "higher"},
	{"serve.shed", "count", "lower"},

	{"dist.job_ms", "ms", "lower"},
	{"dist.overhead_ms", "ms", "lower"},

	{"load.lag_p99_ms", "ms", "lower"},
	{"load.sent", "count", "higher"},

	{"recon.layer_sum_ms", "ms", "lower"},
	{"recon.layer_gap_frac", "ratio", "lower"},
	{"recon.client_gap_ms", "ms", "lower"},
	{"recon.job_wall_per_worker_s", "s", "lower"},
	{"recon.campaign_gap_frac", "ratio", "lower"},

	{"trace.overhead_frac.setup_s", "ratio", "lower"},
	{"trace.overhead_frac.campaign_s", "ratio", "lower"},
	{"trace.overhead_frac.sim_p50_ms", "ratio", "lower"},
	{"trace.overhead_frac.sim_p90_ms", "ratio", "lower"},
	{"trace.overhead_frac.goodput_rps", "ratio", "lower"},
	{"trace.overhead_frac.ok_frac", "ratio", "lower"},
	{"trace.overhead_frac.max_rss_mb", "ratio", "lower"},
}
