package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json names
// the same metrics with the same units; the schema test holds the two
// together.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the system would see; every workload reports
// all of them in its untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ns_per_op", "ns"},
	{"latency_p50_ms", "ms"},
	{"datagrams_per_op", "1/op"},
	{"heap_bytes_per_key", "B"},
}

// sentTypes are the wire types whose per-op datagram rate is reported.
var sentTypes = []string{
	"trigger", "refresh", "ack", "removal", "removal-ack", "notify",
	"summary-refresh", "summary-nack", "ack-batch", "probe", "probe-ack",
}

// perLayer is what the traced pass reports. A metric whose source does
// not occur on a workload (no kernel sockets, no sweep, no pacer) reads 0
// there — that is the "should not move" column of README.md.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// wire — replay
		{"wire.encode_summary_ns_per_key.64", "ns"},
		{"wire.encode_summary_ns_per_key.256", "ns"},
		{"wire.visit_summary_ns_per_key.64", "ns"},
		{"wire.visit_summary_ns_per_key.256", "ns"},
		{"wire.summary_bytes_per_key.64", "B"},
		{"wire.summary_bytes_per_key.256", "B"},
		{"wire.encode_trigger_ns", "ns"},
		{"wire.decode_trigger_ns", "ns"},
		{"wire.decode_ackbatch_ns_per_item", "ns"},
		// statetable — replay
		{"statetable.renew_ns", "ns"},
		{"statetable.upsert_ns", "ns"},
		{"statetable.delete_ns", "ns"},
		{"statetable.fire_ns_per_timer", "ns"},
		{"statetable.heap_bytes_per_entry", "B"},
		// signal — spans, replay and counts
		{"signal.sweep_self_ns_per_key", "ns"},
		{"signal.session_sweep_ns_per_key", "ns"},
		{"signal.sender_busy_share", "ratio"},
		{"signal.dispatch_ns_per_datagram", "ns"},
		{"signal.receiver_busy_cores", "count"},
		{"signal.receiver_summary_ns_per_key", "ns"},
		{"signal.receiver_trigger_ns", "ns"},
		{"signal.install_ns", "ns"},
		{"signal.handle_ack_ns_per_item", "ns"},
		{"signal.retransmits_per_install", "ratio"},
		{"signal.ack_items_per_datagram", "count"},
	}
	for _, t := range sentTypes {
		defs = append(defs, metricDef{"signal.datagrams_per_op." + t, "1/op"})
	}
	return append(defs,
		// node — the churn-chain driver
		metricDef{"node.install_call_ns", "ns"},
		metricDef{"node.hop_ms_p50.hop1", "ms"},
		metricDef{"node.hop_ms_p50.hop2", "ms"},
		metricDef{"node.hop_ms_p50.hop3", "ms"},
		metricDef{"node.install_p99_ms", "ms"},
		metricDef{"node.generator_late_p50_ms", "ms"},
		metricDef{"node.generator_late_p99_ms", "ms"},
		// transport — spans and counts on kernel sockets, then replay
		metricDef{"transport.write_ns_per_datagram", "ns"},
		metricDef{"transport.datagrams_per_write_call", "count"},
		metricDef{"transport.datagrams_per_read_call", "count"},
		metricDef{"transport.sweeps_repeated", "count"},
		metricDef{"transport.udp_write_ns_per_datagram", "ns"},
		metricDef{"transport.udp_read_ns_per_datagram", "ns"},
		metricDef{"transport.udp_batch_write_ns_per_datagram", "ns"},
		metricDef{"transport.udp_batch_read_ns_per_datagram", "ns"},
		metricDef{"transport.tcp_write_ns_per_datagram", "ns"},
		metricDef{"transport.tcp_read_ns_per_datagram", "ns"},
		// lossy and clock — spans on the virtual workloads, then replay
		metricDef{"lossy.write_ns_per_datagram", "ns"},
		metricDef{"lossy.deliver_ns_per_datagram", "ns"},
		metricDef{"clock.run_overhead_share", "ratio"},
		metricDef{"clock.gate_parks_per_vsec", "1/s"},
		metricDef{"clock.timer_fire_ns", "ns"},
		// telemetry — replay
		metricDef{"telemetry.counter_add_ns", "ns"},
		metricDef{"telemetry.histogram_observe_ns", "ns"},
		// process — the Go runtime and getrusage
		metricDef{"process.allocs_per_op", "count"},
		metricDef{"process.gc_cycles", "count"},
		metricDef{"process.gc_cpu_share", "ratio"},
		metricDef{"process.peak_rss_mb", "MB"},
		metricDef{"process.trace_overhead_ratio", "ratio"},
		// layers — do the layer costs add up?
		metricDef{"layers.refresh_path_sum_ns_per_key", "ns"},
		metricDef{"layers.refresh_path_coverage", "ratio"},
	)
}()
