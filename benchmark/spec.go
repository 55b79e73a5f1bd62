package main

import "encoding/json"

// The benchmark's contract lives here once: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics. The
// BENCHMARK.json at the repository root is this table printed by -print-spec
// (TestSpecMatchesBenchmarkJSON keeps the two equal), and every run emits
// exactly these names.

// runSeconds is the measured window the driver asks for (--seconds).
const runSeconds = 10

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wRealSmall    = "real_small"
	wRealObserved = "real_observed"
	wRealLargePut = "real_large_put"
	wRealLargeGet = "real_large_get"
	wSimFig5      = "sim_fig5"
	wSimFanin     = "sim_shard_fanin"
)

var workloads = []workloadSpec{
	{wRealSmall, "1 B-4 KB echoes over loopback TCP with observation off: per-call fixed cost (futures, queues, headers, syscalls) dominates, byte movement does not"},
	{wRealObserved, "the same traffic with a metrics registry and a 1-in-64 tracer attached: the difference from real_small is the observation pipeline's cost"},
	{wRealLargePut, "64 KB-1 MB requests under one call kind, tiny reply: request-path byte movement (pool re-gets, send copy, receive allocation, ReadFields copy) dominates"},
	{wRealLargeGet, "tiny request, 64 KB-1 MB replies: the same layers the other way round, so a gain for sends that costs receives shows"},
	{wSimFig5, "the legacy kernel running the real engine (Fig 5b shape, three transports): host cost is goroutine hand-off plus engine allocations; simulated results are exact"},
	{wSimFanin, "the sharded kernel driven by callbacks (1000 nodes, 100000 clients, one NameNode): barrier, mailbox, shard fabric and per-shard metrics cost"},
}

// endToEnd metrics apply to every workload and are never zero. Bounds are the
// share of the parent's median by which a later change may worsen them. The
// two timings carry the widest bound the contract allows: the reference
// machine's own speed drifts by several percent over minutes, so ten runs of
// one binary spread 5-9% (README.md), and a bound is only usable at about
// three times the spread. The two counts repeat to 0.1% and are held to 2%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_call", "us", "lower", 0.25},
	{"allocs_per_call", "count", "lower", 0.02},
	{"bytes_per_call", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer metrics come from the traced run. A workload that does not execute
// a layer reports 0 for it. Host times use us/ns/ms; virtual (simulated) times
// use sim_us, so the two clocks are never confused.
var perLayer = []metricSpec{
	// Caller-observed host latency, from the untraced half of the traced run.
	{Name: "core.call_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.latency_samples", Unit: "count", Better: "higher"},
	{Name: "core.p50_us_1b", Unit: "us", Better: "lower"},
	{Name: "core.p50_us_4k", Unit: "us", Better: "lower"},
	// Spans recorded by the decorators around each seam.
	{Name: "core.call_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.write_us_per_call", Unit: "us", Better: "lower"},
	{Name: "wire.read_us_per_call", Unit: "us", Better: "lower"},
	{Name: "transport.send_us_per_call", Unit: "us", Better: "lower"},
	{Name: "transport.recv_wait_us_per_call", Unit: "us", Better: "lower"},
	{Name: "transport.sends_per_call", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "transport.header_bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "transport.dials", Unit: "count", Better: "lower"},
	{Name: "exec.queues_per_call", Unit: "count", Better: "lower"},
	{Name: "exec.spawns_per_call", Unit: "count", Better: "lower"},
	{Name: "exec.queue_wait_us_per_call", Unit: "us", Better: "lower"},
	{Name: "handler.us_per_call", Unit: "us", Better: "lower"},
	// Public counters read at the boundary.
	{Name: "bufpool.first_fit_share", Unit: "ratio", Better: "higher"},
	{Name: "bufpool.regets_per_call", Unit: "count", Better: "lower"},
	{Name: "bufpool.native_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "bufpool.peak_registered_mb", Unit: "MB", Better: "lower"},
	{Name: "core.client_errors", Unit: "count", Better: "lower"},
	{Name: "core.server_shed", Unit: "count", Better: "lower"},
	{Name: "core.server_expired", Unit: "count", Better: "lower"},
	{Name: "ibverbs.eager_share", Unit: "ratio", Better: "higher"},
	{Name: "ibverbs.cq_polls_per_call", Unit: "count", Better: "lower"},
	{Name: "ibverbs.unregistered_tx", Unit: "count", Better: "lower"},
	{Name: "sim.shard_barriers_per_call", Unit: "count", Better: "lower"},
	{Name: "sim.shard_merged_msgs_per_call", Unit: "count", Better: "lower"},
	{Name: "netsim.shard_delivered_per_call", Unit: "count", Better: "lower"},
	// The sim drivers.
	{Name: "sim.host_us_per_call_10gige", Unit: "us", Better: "lower"},
	{Name: "sim.host_us_per_call_ipoib", Unit: "us", Better: "lower"},
	{Name: "sim.host_us_per_call_rpcoib", Unit: "us", Better: "lower"},
	{Name: "core.sim_allocs_per_call_baseline", Unit: "count", Better: "lower"},
	{Name: "core.sim_allocs_per_call_rpcoib", Unit: "count", Better: "lower"},
	{Name: "sim.slice_host_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.slice_host_ms_max", Unit: "ms", Better: "lower"},
	{Name: "sim.shard_speedup", Unit: "ratio", Better: "higher"},
	// Exact simulated values: the fidelity guard. They must not move unless
	// a change says the model changed.
	{Name: "perfmodel.sim_rtt_us_10gige", Unit: "sim_us", Better: "lower"},
	{Name: "perfmodel.sim_rtt_us_ipoib", Unit: "sim_us", Better: "lower"},
	{Name: "perfmodel.sim_rtt_us_rpcoib", Unit: "sim_us", Better: "lower"},
	{Name: "perfmodel.sim_kcalls_per_s_10gige", Unit: "k/sim_s", Better: "higher"},
	{Name: "perfmodel.sim_kcalls_per_s_ipoib", Unit: "k/sim_s", Better: "higher"},
	{Name: "perfmodel.sim_kcalls_per_s_rpcoib", Unit: "k/sim_s", Better: "higher"},
	{Name: "perfmodel.fanin_rtt_us", Unit: "sim_us", Better: "lower"},
	{Name: "perfmodel.fanin_kcalls_per_s", Unit: "k/sim_s", Better: "higher"},
	// Isolated loops: the per-layer ladder, the same in every traced run.
	{Name: "wire.alg1_encode_ns_small", Unit: "ns", Better: "lower"},
	{Name: "wire.alg1_encode_ns_large", Unit: "ns", Better: "lower"},
	{Name: "wire.alg1_encode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.decode_ns_small", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_large", Unit: "ns", Better: "lower"},
	{Name: "core.rdma_stream_ns_small", Unit: "ns", Better: "lower"},
	{Name: "core.rdma_stream_ns_large", Unit: "ns", Better: "lower"},
	{Name: "core.rdma_stream_allocs", Unit: "count", Better: "lower"},
	{Name: "bufpool.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.acquire_release_allocs", Unit: "count", Better: "lower"},
	{Name: "exec.queue_putget_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.newqueue_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_large_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ibverbs.send_recv_ns", Unit: "ns", Better: "lower"},
	{Name: "ibverbs.srq_consume_release_ns", Unit: "ns", Better: "lower"},
	{Name: "ibverbs.qpmux_attach_detach_ns", Unit: "ns", Better: "lower"},
	{Name: "core.conncache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.sharded_barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.transfer_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.shard_send_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.new_sharded_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.labelled_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "tracing.span_ns", Unit: "ns", Better: "lower"},
	{Name: "tracing.span_unsampled_ns", Unit: "ns", Better: "lower"},
	{Name: "tracing.span_allocs", Unit: "count", Better: "lower"},
	// Derived. The first two are measured on real_observed only, against the
	// same traffic with observation off in the same process.
	{Name: "metrics.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "metrics.allocs_added_per_call", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// specJSON renders the table in BENCHMARK.json's shape. Per-layer metrics
// have no bound, so theirs is omitted.
func specJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data: cannot fail
	}
	return append(b, '\n')
}

func specFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
