package main

// The benchmark's metric names and units. BENCHMARK.json at the repository
// root lists the same names; perfbench_test.go keeps the two in step.

type metricDef struct{ name, unit string }

// endToEnd are what a user of each workload sees, printed by every untraced
// run.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // fresh process up to the first simulated step
	{"wall_s", "s"},       // one run, host wall clock
	{"cpu_s", "s"},        // one run, user+system CPU of the process
	{"peak_rss_mb", "MB"}, // one run, maximum resident set
}

// profiledLayers are the classes profile samples are charged to: every
// module under internal/, the dwcsd daemon's own package, Go scheduling and
// garbage collection, and everything else.
var profiledLayers = []string{
	"sim", "rtos", "dwcs", "nic", "bus", "netsim", "disk", "cpu", "mem", "i2o",
	"transport", "proto", "overload", "telemetry", "blackbox", "slo", "fleetobs",
	"cluster", "hostos", "webload", "host", "experiments", "cache", "core",
	"dvcmnet", "faults", "fixed", "mpeg", "qos", "rundiff", "stats", "testbed",
	"trace", "dwcsd",
	classSched, classGC, classOther,
}

// perLayer are printed by every traced run. A metric a workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range profiledLayers {
		out = append(out, metricDef{l + ".cpu_s", "s"})
	}
	return append(out, []metricDef{
		{"profile.samples", "count"},
		{"profile.attributed_pct", "%"},
		{"trace.overhead_pct", "%"},

		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"go.sched_latency_us_p99", "us"},
		{"go.idle_cpu_s", "s"},

		{"sim.lbts_rounds", "count"},
		{"cluster.frames_sent", "count"},
		{"cluster.frames_recv", "count"},
		{"cluster.frames_late", "count"},
		{"cluster.frames_dropped", "count"},
		{"cluster.frames_severed", "count"},
		{"cluster.live_migrations", "count"},
		{"fleetobs.scrape_reqs", "count"},
		{"fleetobs.obs_bytes", "B"},
		{"fleetobs.sheds", "count"},
		{"overload.breaches", "count"},
		{"rtos.goroutines_leaked", "count"},
		{"hostos.util_samples_over_100", "count"},
		{"host.frames_sent", "count"},
		{"host.frames_dropped", "count"},

		{"dwcsd.queue_us_p50", "us"},
		{"dwcsd.tx_us_mean", "us"},
		{"dwcsd.tx_us_p95", "us"},
		{"dwcsd.wire_us_p50", "us"},
		{"dwcsd.wire_us_p95", "us"},
		{"dwcsd.frames_sent", "count"},
		{"dwcsd.setups", "count"},
		{"dwcsd.jitter_ms_p50", "ms"},
		{"dwcsd.fail_ratio", "ratio"},
		{"blackbox.events_recorded", "count"},

		{"sim.probe.event_ns", "ns"},
		{"sim.probe.lbts_round_us", "us"},
		{"rtos.probe.switch_ns", "ns"},
		{"dwcs.probe.decision_ns", "ns"},
		{"proto.probe.frame_ns", "ns"},
		{"telemetry.probe.span_ns", "ns"},
		{"blackbox.probe.record_ns", "ns"},
	}...)
}()
