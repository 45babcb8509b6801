package main

import (
	"mpicollperf"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
)

// Registry metric names the traced runs read as layer counts.
var (
	cTemplates = "experiment_plan_templates_total"
	cRebinds   = "experiment_plan_rebinds_total"
	cMeasured  = "sweep_points_measured_total"
	fallbacks  = []experiment.FallbackReason{
		experiment.FallbackPayload, experiment.FallbackMarkInOp, experiment.FallbackPlan,
		experiment.FallbackEchoDivergence, experiment.FallbackTimeVarying, experiment.FallbackRebindDivergence,
	}
)

// fallbackTotal sums the fallback counters over every reason.
func fallbackTotal(reg *obs.Registry) int64 {
	var n int64
	for _, why := range fallbacks {
		n += reg.Counter(obs.Name("experiment_fallbacks_total", "reason", string(why))).Value()
	}
	return n
}

// mpiCounts copies the mpi-layer counters of a traced run's registry.
func mpiCounts(rep *report, reg *obs.Registry) {
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	rep.layer["mpi.runs"] = metric{c("mpi_runs_total"), "count"}
	rep.layer["mpi.operations"] = metric{c("mpi_operations_total"), "count"}
	rep.layer["mpi.transfers"] = metric{c("mpi_transfers_total"), "count"}
	rep.layer["mpi.replay_transfers"] = metric{c("experiment_replay_transfers_total"), "count"}
	rep.layer["mpi.plan_events"] = metric{reg.Histogram("mpi_plan_events").Sum(), "count"}
	rep.layer["mpi.runners_created"] = metric{c("mpi_runner_pool_created_total"), "count"}
	rep.layer["mpi.reps_replay"] = metric{c(obs.Name("experiment_reps_total", "engine", "replay")), "count"}
	rep.layer["mpi.reps_scheduler"] = metric{c(obs.Name("experiment_reps_total", "engine", "scheduler")), "count"}
	for _, why := range fallbacks {
		rep.layer["mpi.fallbacks."+string(why)] = metric{c(obs.Name("experiment_fallbacks_total", "reason", string(why))), "count"}
	}
}

// traceSummary reports how the traced run compares with the untraced
// workers=1 run it decomposes (timed once just before and once just
// after it, and averaged): the share of that run's wall time the traced
// layers' self times account for, and the traced run's extra wall time
// (the tracing overhead).
func traceSummary(rep *report, tr *tracer, traced, untraced float64) {
	rep.layer["trace.layer_share"] = metric{tr.selfSum() / untraced, "ratio"}
	rep.layer["trace.overhead_pct"] = metric{(traced/untraced - 1) * 100, "%"}
	rep.note("trace: traced %.4fs, untraced workers=1 %.4fs, layer self-times sum %.4fs", traced, untraced, tr.selfSum())
}

// layerNames is every per-layer metric with its unit; a workload that
// does not exercise a layer reports 0 for it.
var layerNames = func() map[string]string {
	m := map[string]string{
		"experiment.points": "count", "experiment.classes": "count", "experiment.rebinds": "count",
		"experiment.rebind_ratio": "ratio", "experiment.capture_s": "s", "experiment.rebind_s": "s",
		"experiment.fallback_s": "s", "experiment.measure_s": "s", "experiment.parallel_speedup": "x",
		"mpi.runs": "count", "mpi.operations": "count", "mpi.transfers": "count",
		"mpi.replay_transfers": "count", "mpi.plan_events": "count", "mpi.runners_created": "count",
		"mpi.reps_replay": "count", "mpi.reps_scheduler": "count",
		"stats.reps_per_point": "count", "stats.huber_iterations": "count", "stats.huber_s": "s",
		"estimate.gamma_s": "s", "estimate.fit_s": "s",
		"core.best_for_ns":    "ns",
		"serve.wire_parse_ns": "ns", "serve.wire_encode_ns": "ns", "serve.handler_us": "us",
		"serve.job_calibrate_s": "s", "serve.store_put_ms": "ms", "serve.poll_requests": "count",
		"go.alloc_mb": "MB", "go.gc_cycles": "count",
		"trace.layer_share": "ratio", "trace.overhead_pct": "%",
	}
	for _, why := range fallbacks {
		m["mpi.fallbacks."+string(why)] = "count"
	}
	for _, fam := range mpicollperf.Collectives() {
		m["estimate.ext_"+fam+"_s"] = "s"
	}
	return m
}()

// fillLayerDefaults adds a 0 for every per-layer metric the workload did
// not report, so every workload prints the same set.
func fillLayerDefaults(rep *report) {
	for name, unit := range layerNames {
		if _, ok := rep.layer[name]; !ok {
			rep.layer[name] = metric{0, unit}
		}
	}
	for name := range rep.layer {
		if _, ok := layerNames[name]; !ok {
			panic("perfbench: per-layer metric " + name + " missing from layerNames")
		}
	}
}
