package main

import "strings"

// perLayerNames are the traced per-layer metrics, as BENCHMARK.json lists
// them; a --trace 1 run reports every one on every workload (zero where
// the workload does not reach the layer).
var perLayerNames = []string{
	"gateway.handler_step_p50_us", "gateway.handler_step_p99_us", "gateway.handler_open_p50_us",
	"gateway.self_step_p50_us", "gateway.png_hit_ratio", "gateway.png_misses",
	"gateway.push_bytes_per_step", "gateway.client_queue_p99_us",
	"workstation.prefetch_hit_ratio", "workstation.prefetch_waste_ratio",
	"workstation.backend_calls_per_step", "workstation.backend_calls_per_open",
	"workstation.open_self_p50_us", "workstation.open_self_p99_us",
	"cluster.call_p50_us.miniatures", "cluster.call_p50_us.query", "cluster.call_p50_us.descriptor",
	"cluster.call_p50_us.piece", "cluster.call_p50_us.voice_open",
	"cluster.call_p99_us.miniatures", "cluster.call_p99_us.query", "cluster.call_p99_us.descriptor",
	"cluster.call_p99_us.piece", "cluster.call_p99_us.voice_open",
	"cluster.failovers", "cluster.reroutes", "cluster.refetches", "cluster.reconnects",
	"wire.transit_p50_us.miniatures", "wire.transit_p50_us.query", "wire.transit_p50_us.piece",
	"wire.frames_per_op", "wire.bytes_in_per_op", "wire.bytes_out_per_op", "wire.stream_chunks_per_listen",
	"server.residence_p50_us.miniatures", "server.residence_p50_us.query_planned",
	"server.residence_p50_us.descriptor", "server.residence_p50_us.read_piece", "server.residence_p50_us.voice_open",
	"server.residence_p99_us.miniatures", "server.residence_p99_us.query_planned",
	"server.residence_p99_us.descriptor", "server.residence_p99_us.read_piece", "server.residence_p99_us.voice_open",
	"server.encoded_hit_ratio", "server.block_cache_hit_ratio", "server.readahead_blocks_per_op",
	"server.bytes_out_per_op", "server.pool_recycle_ratio", "model_device_ms_per_op",
	"sched.seek_waits_per_op", "sched.seek_wait_us_per_op", "sched.server_sheds", "sched.gateway_sheds",
	"index.search_p50_us", "index.search_p99_us", "index.hits_per_query", "index.segments",
	"index.seals", "index.seals_min_shard", "index.merges",
	"disk.reads_per_open", "disk.writes_per_publish",
	"runtime.gc_cycles_per_s", "runtime.gc_pause_p99_us", "runtime.cpu_busy_ratio", "runtime.heap_bytes_per_op",
	"loadgen.late_p99_ms", "e2e.action_p99_ms", "e2e.error_ratio", "trace.overhead_p50_ratio", "trace.overhead_cpu_ratio",
}

// perLayerUnit derives a metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	default:
		return "count"
	}
}
