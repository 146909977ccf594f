package main

// metricDef declares one reported metric. For a per-layer metric, Moves
// and On record the end-to-end metric it is predicted to move and the
// workload where it moves it, written down before any change is measured.
// On a workload that bypasses the layer the prediction is no change.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
	On     string `json:"on,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Latencies are model time; the rest is host cost.
// sim_ops_per_cpu_s divides by the process's CPU time over the same span
// as sim_ops_per_host_s: the cost view, GC and scheduler threads included.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_ops_per_host_s", Unit: "ops/host-s", Better: "higher"},
	{Name: "sim_ops_per_cpu_s", Unit: "ops/cpu-s", Better: "higher"},
	{Name: "allocs_per_op", Unit: "allocs", Better: "lower"},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "weak_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "weak_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "final_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "final_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "goodput_ops_per_model_s", Unit: "ops/model-s", Better: "higher"},
	{Name: "served_pct", Unit: "%", Better: "higher"},
	{Name: "client_bytes_per_op", Unit: "B", Better: "lower"},
}

const (
	allWorkloads = "ycsb-b,session-storm,zk-failover"
	opsHostS     = "sim_ops_per_host_s"
)

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"netsim.spawns_per_op", "count", "lower", opsHostS + ",peak_heap_mb", "session-storm"},
	{"netsim.goroutines_peak", "count", "lower", opsHostS + ",peak_heap_mb", "session-storm"},
	{"netsim.client_msgs_per_op", "count", "lower", "client_bytes_per_op," + opsHostS, allWorkloads},
	{"netsim.replica_msgs_per_op", "count", "lower", "client_bytes_per_op," + opsHostS, allWorkloads},
	{"netsim.replica_bytes_per_op", "B", "lower", "client_bytes_per_op," + opsHostS, allWorkloads},
	{"netsim.dropped_msgs", "count", "lower", "served_pct", "zk-failover"},
	{"netsim.queue_ms_per_op", "ms", "lower", "final_p99_ms", "session-storm"},
	{"netsim.server_ms_per_op", "ms", "lower", "final_p99_ms", "session-storm"},
	{"netsim.net_client_ms_per_op", "ms", "lower", "weak_p50_ms,final_p50_ms", "ycsb-b"},
	{"netsim.net_replica_ms_per_op", "ms", "lower", "weak_p50_ms,final_p50_ms", "ycsb-b"},
	{"netsim.util_mean_pct", "%", "higher", "goodput_ops_per_model_s", "session-storm"},
	{"netsim.util_max_pct", "%", "lower", "goodput_ops_per_model_s", "session-storm"},

	{"core.views_per_op", "count", "lower", "allocs_per_op", "ycsb-b"},
	{"core.prelim_confirmed_pct", "%", "higher", "client_bytes_per_op", "ycsb-b"},
	{"core.deliver_host_ns_p50", "ns", "lower", opsHostS, "ycsb-b"},
	{"core.deliver_host_ns_p99", "ns", "lower", opsHostS, "ycsb-b"},

	{"binding.invoke_host_ns_p50", "ns", "lower", opsHostS + ",allocs_per_op", "ycsb-b"},
	{"binding.invoke_host_ns_p99", "ns", "lower", opsHostS + ",allocs_per_op", "ycsb-b"},
	{"binding.invoke_self_host_ns_p50", "ns", "lower", opsHostS + ",allocs_per_op", "ycsb-b"},
	{"binding.batch_mean_ops", "ops", "higher", opsHostS + ",final_p50_ms", "session-storm"},
	{"binding.dispatches_per_op", "count", "lower", opsHostS + ",final_p50_ms", "session-storm"},
	{"binding.timeouts", "count", "lower", "served_pct", "zk-failover"},

	{"load.admitted_pct", "%", "higher", "served_pct,goodput_ops_per_model_s", "session-storm"},
	{"load.rejected", "count", "lower", "served_pct,goodput_ops_per_model_s", "session-storm"},
	{"load.shed", "count", "lower", "served_pct,goodput_ops_per_model_s", "session-storm"},
	{"load.admit_rate_mean", "ops/model-s", "higher", "served_pct,goodput_ops_per_model_s", "session-storm"},
	{"load.wasted_ops_pct", "%", "lower", "goodput_ops_per_model_s", "session-storm"},
	{"load.admit_host_ns_p50", "ns", "lower", opsHostS, "session-storm"},
	{"load.generator_lag_ms", "ms", "lower", "weak_p99_ms,final_p99_ms", "session-storm"},

	{"cassandra.replica_reqs_per_op", "count", "lower", opsHostS + ",goodput_ops_per_model_s", "ycsb-b,session-storm"},
	{"cassandra.quorum_ms_per_read", "ms", "lower", "final_p50_ms,weak_p50_ms", "ycsb-b"},
	{"cassandra.flush_ms_per_read", "ms", "lower", "final_p50_ms,weak_p50_ms", "ycsb-b"},
	{"cassandra.repair_ms_per_op", "ms", "lower", "final_p50_ms,weak_p50_ms", "ycsb-b"},
	{"cassandra.batch_ms_per_op", "ms", "lower", "final_p50_ms", "session-storm"},
	{"cassandra.submit_host_ns_p50", "ns", "lower", opsHostS, "ycsb-b,session-storm"},

	{"ring.shard_jain", "ratio", "higher", "goodput_ops_per_model_s", "session-storm"},

	{"zk.elections", "count", "lower", "served_pct,goodput_ops_per_model_s", "zk-failover"},
	{"zk.recovery_ms", "ms", "lower", "served_pct,goodput_ops_per_model_s", "zk-failover"},
	{"zk.prelim_only_window_ms", "ms", "lower", "served_pct,goodput_ops_per_model_s", "zk-failover"},
	{"zk.election_ms", "ms", "lower", "final_p50_ms", "zk-failover"},
	{"zk.quorum_ms_per_op", "ms", "lower", "final_p50_ms", "zk-failover"},
	{"zk.submit_host_ns_p50", "ns", "lower", opsHostS, "zk-failover"},

	{"faults.transitions", "count", "lower", "served_pct", "zk-failover"},

	{"history.checked_ops", "count", "higher", opsHostS, "zk-failover"},
	{"history.session_check_host_ms", "ms", "lower", opsHostS, "zk-failover"},
	{"history.linearize_check_host_ms", "ms", "lower", opsHostS, "zk-failover"},
	{"history.violations", "count", "lower", "", ""},
	{"history.inconclusive_keys", "count", "lower", "", ""},

	{"trace.spans", "count", "lower", "", ""},
	{"trace.export_host_ms", "ms", "lower", "", ""},
	{"trace.overhead_pct", "%", "lower", "", ""},

	{"host_cpu_pct.netsim", "%", "lower", opsHostS, allWorkloads},
	{"host_cpu_pct.cassandra", "%", "lower", opsHostS, "ycsb-b,session-storm"},
	{"host_cpu_pct.zk", "%", "lower", opsHostS, "zk-failover"},
	{"host_cpu_pct.binding", "%", "lower", opsHostS, allWorkloads},
	{"host_cpu_pct.core", "%", "lower", opsHostS, allWorkloads},
	{"host_cpu_pct.load", "%", "lower", opsHostS, "session-storm"},
	{"host_cpu_pct.history", "%", "lower", opsHostS, "zk-failover"},
	{"host_cpu_pct.runtime_stack", "%", "lower", opsHostS, allWorkloads},
	{"host_cpu_pct.runtime_sched", "%", "lower", opsHostS, allWorkloads},
	{"host_cpu_pct.runtime_gc", "%", "lower", opsHostS, allWorkloads},
}
