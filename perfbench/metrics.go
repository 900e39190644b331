package main

// metric is one reported number: its name, unit and which direction is
// better. Units say whether a quantity is host-side ("s", "ns", "MB",
// "B", "count" of host work) or simulated ("virt_..."): host numbers
// vary from run to run, simulated ones are pure functions of the
// inputs.
type metric struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics of an untraced run (--trace 0).
// failed_frac is carried by the result's attempted and failed fields.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layers are the internal packages that get a self-time bucket; any
// other internal package counts toward "other".
var layers = []string{
	"sim", "flownet", "lustre", "cluster", "mpi", "posixio", "h5lite",
	"workloads", "ipmio", "tracefmt", "ensemble", "analysis", "wldsl",
	"cascache", "campaign", "runpool", "telemetry",
}

// perLayer are the metrics of a traced run (--trace 1). Self times come
// from the CPU profile, "*_s" spans from the benchmark's timed calls into
// the facade, counts from Run.Telemetry, Run.Collector and the
// campaign's stats. Every value is per timed iteration.
var perLayer = []metric{
	{"sim.self_s", "s", "lower"},
	{"host.sched_s", "s", "lower"},
	{"sim.events_popped", "count", "lower"},
	{"sim.events_scheduled", "count", "lower"},
	{"sim.heap_high_water", "count", "lower"},
	{"sim.ff_frac", "virt_s/virt_s", "higher"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"flownet.self_s", "s", "lower"},
	{"flownet.recomputes", "count", "lower"},
	{"flownet.refreshes", "count", "lower"},
	{"flownet.active_streams_max", "virt_count", "lower"},
	{"lustre.self_s", "s", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"lustre.write_jobs", "virt_count", "lower"},
	{"lustre.write_mb", "virt_MB", "lower"},
	{"lustre.read_calls", "virt_count", "lower"},
	{"lustre.read_mb", "virt_MB", "lower"},
	{"lustre.readahead_pathologies", "virt_count", "lower"},
	{"lustre.conflicts", "virt_count", "lower"},
	{"lustre.mds_ops", "virt_count", "lower"},
	{"mpi.self_s", "s", "lower"},
	{"posixio.self_s", "s", "lower"},
	{"h5lite.self_s", "s", "lower"},
	{"mpi.barriers", "virt_count", "lower"},
	{"workloads.run_s", "s", "lower"},
	{"workloads.self_s", "s", "lower"},
	{"ipmio.self_s", "s", "lower"},
	{"ipmio.events", "count", "lower"},
	{"tracefmt.self_s", "s", "lower"},
	{"tracefmt.encode_s", "s", "lower"},
	{"tracefmt.decode_s", "s", "lower"},
	{"tracefmt.trace_bytes", "B", "lower"},
	{"ensemble.self_s", "s", "lower"},
	{"ensemble.stats_s", "s", "lower"},
	{"analysis.self_s", "s", "lower"},
	{"analysis.diagnose_s", "s", "lower"},
	{"wldsl.self_s", "s", "lower"},
	{"cascache.self_s", "s", "lower"},
	{"campaign.self_s", "s", "lower"},
	{"runpool.self_s", "s", "lower"},
	{"campaign.run_s", "s", "lower"},
	{"cascache.open_s", "s", "lower"},
	{"cascache.hits", "count", "higher"},
	{"cascache.misses", "count", "lower"},
	{"cascache.bytes_served", "B", "lower"},
	{"cascache.store_mb", "MB", "lower"},
	{"campaign.unique", "count", "lower"},
	{"campaign.dup_hits", "count", "higher"},
	{"telemetry.self_s", "s", "lower"},
	{"host.gc_s", "s", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"host.ref_pass_s", "s", "lower"},
	{"other.self_s", "s", "lower"},
	{"bench.self_s", "s", "lower"},
	{"profile.total_s", "s", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}
