package main

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's output schema; BENCHMARK.json at the repository root
// lists the same names (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run (--trace 0). Every workload
// reports every metric; what one operation is depends on the workload
// (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"op_ms", "ms"},
}

// Layer kinds, in paper order.
const (
	layerLCI   = "lci"
	layerProbe = "mpi-probe"
	layerRMA   = "mpi-rma"
)

// perLayer is printed by every traced run (--trace 1). A metric of a layer
// the workload does not run reads 0.
var perLayer = []metricDef{
	// One verified operation per comm path, from the run's untraced
	// iterations, and what recording spans cost on top of them.
	{"pr_ms.lci", "ms"}, {"pr_ms.mpi-probe", "ms"}, {"pr_ms.mpi-rma", "ms"},
	{"sssp_ms.lci", "ms"}, {"sssp_ms.mpi-probe", "ms"}, {"sssp_ms.mpi-rma", "ms"},
	{"gemini_pr_ms.lci", "ms"}, {"gemini_pr_ms.mpi-probe", "ms"},
	{"msgs_per_s.queue", "msg/s"}, {"msgs_per_s.probe", "msg/s"},
	{"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"goodput_qps", "qps"},
	{"tracing.overhead_pct", "%"},

	{"graph.gen_s", "s"}, {"partition.build_s", "s"},

	{"abelian.compute_ms.lci", "ms"}, {"abelian.compute_ms.mpi-probe", "ms"}, {"abelian.compute_ms.mpi-rma", "ms"},
	{"abelian.comm_ms.lci", "ms"}, {"abelian.comm_ms.mpi-probe", "ms"}, {"abelian.comm_ms.mpi-rma", "ms"},
	{"abelian.rounds", "count"},

	{"gemini.compute_ms.lci", "ms"}, {"gemini.compute_ms.mpi-probe", "ms"},
	{"gemini.comm_ms.lci", "ms"}, {"gemini.comm_ms.mpi-probe", "ms"},

	{"comm.exchange_ms.lci", "ms"}, {"comm.exchange_ms.mpi-probe", "ms"}, {"comm.exchange_ms.mpi-rma", "ms"},
	{"comm.exchange_calls", "count"},
	{"comm.bytes_out.lci", "B"}, {"comm.bytes_out.mpi-probe", "B"}, {"comm.bytes_out.mpi-rma", "B"},
	{"comm.peak_buf_kib.lci", "KiB"}, {"comm.peak_buf_kib.mpi-probe", "KiB"}, {"comm.peak_buf_kib.mpi-rma", "KiB"},
	{"comm.coalesced_ratio", "ratio"},

	{"core.sendenq_ns", "ns"}, {"core.recvdeq_ns", "ns"},
	{"core.sendenq_fail_ratio", "ratio"}, {"core.recvdeq_hit_ratio", "ratio"},

	{"mpi.send_ns", "ns"}, {"mpi.recv_ns", "ns"}, {"mpi.iprobe_per_msg", "ratio"},

	{"fabric.send_frames", "count"}, {"fabric.send_bytes", "B"},
	{"fabric.put_calls", "count"}, {"fabric.put_bytes", "B"},
	{"fabric.send_ns", "ns"}, {"fabric.put_ns", "ns"},
	{"fabric.resource_retry_ratio", "ratio"}, {"fabric.poll_hit_ratio", "ratio"},

	{"netfabric.retransmits_per_kframe", "1/kframe"}, {"netfabric.dup_drops", "count"},
	{"netfabric.acks_per_kframe", "1/kframe"}, {"netfabric.piggyback_ratio", "ratio"},
	{"netfabric.send_batches", "count"}, {"netfabric.recv_batches", "count"},
	{"netfabric.gso_sends", "count"}, {"netfabric.gro_coalesced", "count"},
	{"netfabric.sock_drops", "count"}, {"netfabric.credit_stalls", "count"},
	{"netfabric.srtt_us_max", "us"}, {"netfabric.send_ns", "ns"}, {"netfabric.poll_hit_ratio", "ratio"},

	{"serve.latency_ms.khop", "ms"}, {"serve.latency_ms.dist", "ms"}, {"serve.latency_ms.ppr", "ms"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.subqueries_per_query", "ratio"},
	{"serve.shed_ratio.fixed", "ratio"}, {"serve.shed_ratio.overload", "ratio"},
	{"serve.generator_lag_ms", "ms"},
}
