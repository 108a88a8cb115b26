package main

// metricDef names one reported metric. Clock says which time a metric is
// measured in: "sim" for the modelled machine's simulated clock (repeats
// exactly for a fixed seed), "host" for what the Go program costs on the
// machine running it, and "count" for a simulated or host-side tally.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
}

// endToEnd lists the metrics a user of the simulator sees; every workload
// prints all of them with tracing off. ops_failed_frac is printed in the
// report but is not a gated metric: it is 0 on a correct run, and the result
// line carries the same information as attempted and failed.
var endToEnd = []metricDef{
	{"host_batches_per_s", "batch/s", "higher", "host"},
	{"setup_s", "s", "lower", "host"},
	{"heap_peak_mb", "MB", "lower", "host"},
	{"sim_emb_ms_per_batch", "ms", "lower", "sim"},
	{"sim_e2e_ms_per_batch", "ms", "lower", "sim"},
	{"sim_emb_speedup", "x", "higher", "sim"},
	{"serve_p50_ms", "ms", "lower", "sim"},
	{"serve_p99_ms", "ms", "lower", "sim"},
	{"serve_max_rate_rps", "req/s", "higher", "sim"},
	{"serve_goodput_rps", "req/s", "higher", "sim"},
}

// perLayer lists the traced run's metrics, named after the module they
// measure. A layer a workload does not execute reports 0.
var perLayer = []metricDef{
	{"workload.gen_ms_per_batch", "ms", "lower", "host"},
	{"workload.alloc_mb_per_batch", "MB", "lower", "host"},
	{"retrieval.spec_s", "s", "lower", "host"},
	{"retrieval.input_ms_per_batch", "ms", "lower", "host"},
	{"retrieval.plan_ms_per_batch", "ms", "lower", "host"},
	{"retrieval.plan_allocs_per_batch", "count", "lower", "host"},
	{"retrieval.run_ms_per_batch", "ms", "lower", "host"},
	{"retrieval.run_allocs_per_batch", "count", "lower", "host"},
	{"retrieval.sim_computation_ms_per_batch", "ms", "lower", "sim"},
	{"retrieval.sim_communication_ms_per_batch", "ms", "lower", "sim"},
	{"retrieval.sim_sync_unpack_ms_per_batch", "ms", "lower", "sim"},
	{"retrieval.sim_fused_kernel_ms_per_batch", "ms", "lower", "sim"},
	{"retrieval.dedup_unique_frac", "ratio", "lower", "count"},
	{"retrieval.owner_imbalance", "ratio", "lower", "count"},
	{"sim.events_per_batch", "count", "lower", "count"},
	{"sim.host_ns_per_event", "ns", "lower", "host"},
	{"dlrm.model_init_s", "s", "lower", "host"},
	{"dlrm.dense_ms_per_batch", "ms", "lower", "host"},
	{"dlrm.sim_dense_ms_per_batch", "ms", "lower", "sim"},
	{"dlrm.sim_emb_stall_ms_per_batch", "ms", "lower", "sim"},
	{"embedding.reference_ms_per_batch", "ms", "lower", "host"},
	{"nvlink.comm_mb_per_batch", "MB", "lower", "count"},
	{"pgas.puts_per_batch", "count", "lower", "count"},
	{"pgas.payload_over_wire", "ratio", "higher", "count"},
	{"fabric.nic_wire_mb_per_batch", "MB", "lower", "count"},
	{"fabric.nic_msgs_per_batch", "count", "lower", "count"},
	{"fabric.nic_payload_over_wire", "ratio", "higher", "count"},
	{"cache.hit_rate", "ratio", "higher", "count"},
	{"cache.evictions_per_dispatch", "count", "lower", "count"},
	{"serve.host_ms_per_dispatch", "ms", "lower", "host"},
	{"serve.dispatch_setup_ms", "ms", "lower", "host"},
	{"serve.dispatches", "count", "lower", "count"},
	{"serve.pad_frac", "ratio", "lower", "count"},
	{"serve.drop_frac", "ratio", "lower", "count"},
	{"serve.generator_lateness_ms", "ms", "lower", "sim"},
	{"trace.overhead_frac", "ratio", "lower", "host"},
}

// workloadNames lists the workloads in the order the doc describes them.
var workloadNames = []string{"paper-weak4", "cluster-zipf-dedup", "serve-zipf-cache", "functional-check"}

// paperSpeedup is the paper's Table 1 4-GPU weak-scaling EMB speed-up of
// PGAS-fused over NCCL, printed beside sim_emb_speedup on paper-weak4.
const paperSpeedup = 1.87

// latencyLimit is the serving latency limit (simulated seconds) on p99 and
// on the requests that count toward goodput.
const latencyLimit = 0.100
