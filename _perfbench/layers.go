package main

import "github.com/llama-surface/llama/internal/experiments"

// perLayer lists the metrics a traced run reports, in BENCHMARK.json
// order. Every traced run reports all of them; a layer the workload
// does not exercise reads 0. README.md maps each to the end-to-end
// metric it should move and on which workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"experiments.queue_wait_ms_p50", "ms"},
		{"experiments.queue_wait_ms_p95", "ms"},
		{"experiments.compute_ms_sum", "ms"},
		{"experiments.compute_ms_p95", "ms"},
		{"experiments.settle_ms_sum", "ms"},
		{"experiments.jobs", "count"},
		{"experiments.busy_ratio", "ratio"},
		{"experiments.finalize_ms", "ms"},
	}
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments.busy_ms." + id, "ms"})
	}
	return append(defs, []metricDef{
		{"metasurface.hits", "count"},
		{"metasurface.misses", "count"},
		{"metasurface.misses_replay", "count"},
		{"metasurface.hit_ratio", "ratio"},
		{"metasurface.tables", "count"},
		{"store.open_ms", "ms"},
		{"store.tables_load_ms", "ms"},
		{"store.tables_save_ms", "ms"},
		{"store.tables_save_ms_fresh", "ms"},
		{"store.table_entries", "count"},
		{"store.cells_persisted", "count"},
		{"store.cells_reused", "count"},
		{"store.disk_kb", "KB"},
		{"service.submit_ms_p50", "ms"},
		{"service.submit_ms_p95", "ms"},
		{"service.wait_ms_p50", "ms"},
		{"service.wait_ms_p95", "ms"},
		{"service.result_ms_p50", "ms"},
		{"service.result_ms_p95", "ms"},
		{"service.delete_ms_p50", "ms"},
		{"service.rejected", "count"},
		{"service.result_kb", "KB"},
		{"service.gen_lag_ms_p95", "ms"},
		{"fleet.lease_rtt_ms_p50", "ms"},
		{"fleet.lease_rtt_ms_p95", "ms"},
		{"fleet.complete_rtt_ms_p50", "ms"},
		{"fleet.complete_rtt_ms_p95", "ms"},
		{"fleet.empty_lease_ratio", "ratio"},
		{"fleet.heartbeats", "count"},
		{"fleet.complete_kb_per_job", "KB"},
		{"fleet.compute_ms_sum", "ms"},
		{"fleet.granted", "count"},
		{"fleet.duplicates", "count"},
		{"fleet.expired", "count"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"trace.overhead_ratio", "ratio"},
		{"trace.traced_wall_ms", "ms"},
		{"trace.untraced_wall_ms", "ms"},
		{"trace.self_ms.bench", "ms"},
		{"trace.self_ms.experiments", "ms"},
		{"trace.self_ms.store", "ms"},
		{"trace.self_ms.service", "ms"},
		{"trace.self_ms.fleet", "ms"},
	}...)
}

// setSelfTimes stores each layer's self time per traced operation.
func (b *bench) setSelfTimes(ops int) {
	if ops < 1 {
		return
	}
	for layer, d := range selfTimes(b.tr.snapshot()) {
		b.set("trace.self_ms."+layer, ms(d)/float64(ops))
	}
}
