package estimate

import (
	"context"
	"errors"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/stats"
)

// serialOracle is the extended calibration as it ran before the
// families moved onto experiment.Sweep: one experiment.Measure per
// (spec, size) on one network per spec, then the canonical-form fit. It
// stays here as the oracle the Sweep path must match bit for bit.
func serialOracle(t *testing.T, pr cluster.Profile, specs []CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) []model.Hockney {
	t.Helper()
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]model.Hockney, len(specs))
	for i, spec := range specs {
		net, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		var xs, ys []float64
		for _, m := range cfg.Sizes {
			meas, err := experiment.Measure(net, cfg.Procs, cfg.Settings, experiment.Completion, func(p *mpi.Proc) {
				spec.Run(p, m, pr.SegmentSize)
			})
			if err != nil {
				t.Fatalf("%s at m=%d: %v", spec.Name, m, err)
			}
			a, b := spec.Coefficients(cfg.Procs, m, pr.SegmentSize, g)
			xs = append(xs, b/a)
			ys = append(ys, meas.Mean/a)
		}
		if _, out[i], err = solveHockney(xs, ys); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sweepFamily calibrates a family through the Sweep path with the
// engine adjusted by tune (worker count, templates on or off).
func sweepFamily(t *testing.T, pr cluster.Profile, specs []CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig, tune func(*experiment.Sweep)) []model.Hockney {
	t.Helper()
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		t.Fatal(err)
	}
	points, err := collectivePoints(pr, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := cfg.sweep(pr)
	tune(&sw)
	measured, err := sw.Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fitCollectives(pr, specs, g, cfg, measured)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]model.Hockney, len(res))
	for i, r := range res {
		params[i] = r.Params
	}
	return params
}

// familyNames lists the extended families in a fixed order.
var familyNames = []string{"allgather", "allreduce", "alltoall", "reduce", "gather", "scatter", "reduce_scatter"}

// TestExtendedSweepMatchesSerialOracle: every family on Grisou (half the
// cluster, a 6-size grid up to 1 MiB) calibrates to bit-identical
// parameters through AlphaBetaCollectives at one worker and through the
// Sweep at two workers with plan templates on and off.
func TestExtendedSweepMatchesSerialOracle(t *testing.T) {
	pr := cluster.Grisou()
	g := model.UnitGamma()
	// A short repetition budget and grid: the differential is about the
	// engine, not the statistics, and every variant pays its captures.
	cfg := AlphaBetaConfig{
		Sizes:    stats.LogSpaceBytes(8192, 1<<20, 6),
		Settings: experiment.Settings{MinReps: 2, MaxReps: 4, Warmup: 1},
	}
	if raceEnabled {
		// Same engine paths on a 16-node slice of the platform.
		pr = smallProfile(t, 16)
		cfg.Sizes = []int{8192, 65536, 262144}
	}
	fams := AllSpecFamilies()
	for _, fam := range familyNames {
		specs := fams[fam]
		want := serialOracle(t, pr, specs, g, cfg)
		variants := map[string]func(*experiment.Sweep){
			"workers=2":                  func(sw *experiment.Sweep) { sw.Workers = 2 },
			"workers=2/DisableTemplates": func(sw *experiment.Sweep) { sw.Workers, sw.DisableTemplates = 2, true },
		}
		for name, tune := range variants {
			got := sweepFamily(t, pr, specs, g, cfg, tune)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s %s: params %+v, serial oracle %+v", name, specs[i].Name, got[i], want[i])
				}
			}
		}
		cfg := cfg
		cfg.Workers = 1
		res, err := AlphaBetaCollectives(context.Background(), pr, specs, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res[i].Params != want[i] {
				t.Errorf("AlphaBetaCollectives %s: params %+v, serial oracle %+v", specs[i].Name, res[i].Params, want[i])
			}
		}
	}
}

// TestExtendedCalibrationCached: calibrating every family on Grisou's
// default grid (half the cluster, 10 sizes: 210 points) splits the work
// exactly along the structure classes — 18 templates, 162 rebinds, 30
// singleton points, no divergence — and records every fit, labelled by
// spec; a second calibration with the same cache measures nothing and
// fits the same parameters.
func TestExtendedCalibrationCached(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-scale calibration; TestExtendedSweepMatchesSerialOracle covers the concurrent paths under -race")
	}
	pr := cluster.Grisou()
	g := model.UnitGamma()
	cache := experiment.NewCache()
	calibrate := func(reg *obs.Registry) map[string][]AlphaBetaResult {
		out := make(map[string][]AlphaBetaResult)
		for fam, specs := range AllSpecFamilies() {
			res, err := AlphaBetaCollectives(context.Background(), pr, specs, g,
				AlphaBetaConfig{Settings: fastSettings(), Cache: cache, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			out[fam] = res
		}
		return out
	}
	reg := obs.NewRegistry()
	first := calibrate(reg)
	for name, want := range map[string]int64{
		"experiment_plan_templates_total":                                     18,
		"experiment_plan_rebinds_total":                                       162,
		"experiment_plan_singletons_total":                                    30,
		obs.Name("experiment_fallbacks_total", "reason", "rebind-divergence"): 0,
		"sweep_points_measured_total":                                         210,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if n := reg.Histogram(`estimate_fit_seconds{alg="reduce/pipeline"}`).Count(); n != 1 {
		t.Errorf("estimate_fit span for reduce/pipeline recorded %d times, want 1", n)
	}
	if reg.Gauge(`estimate_fit_iterations{alg="allreduce/ring"}`).Value() == 0 {
		t.Error("estimate_fit_iterations not recorded for an extended spec")
	}

	reg = obs.NewRegistry()
	second := calibrate(reg)
	if n := reg.Counter("sweep_points_cached_total").Value(); n != 210 {
		t.Errorf("sweep_points_cached_total = %d, want 210", n)
	}
	if n := reg.Counter("sweep_points_measured_total").Value(); n != 0 {
		t.Errorf("cached calibration measured %d points", n)
	}
	for fam, res := range first {
		for i := range res {
			if second[fam][i].Params != res[i].Params {
				t.Errorf("%s spec %d: cached params %+v, measured %+v", fam, i, second[fam][i].Params, res[i].Params)
			}
		}
	}
}

// TestExtendedCalibrationProgressAndCancel: Progress fires once per
// (spec, size) point, and a ctx cancelled mid-family stops the sweep
// with context.Canceled before the grid finishes.
func TestExtendedCalibrationProgressAndCancel(t *testing.T) {
	pr := smallProfile(t, 8)
	g := model.UnitGamma()
	specs := AllreduceSpecs()
	cfg := AlphaBetaConfig{Procs: 6, Sizes: []int{4096, 16384, 65536}, Settings: fastSettings(), Workers: 1}
	total := len(specs) * len(cfg.Sizes)

	seen := make(map[int]int)
	cfg.Progress = func(done, n int, r experiment.Result) {
		if n != total {
			t.Errorf("progress total %d, want %d", n, total)
		}
		seen[done]++
	}
	if _, err := AlphaBetaCollectives(context.Background(), pr, specs, g, cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("progress fired for %d distinct counts, want %d", len(seen), total)
	}
	for done := 1; done <= total; done++ {
		if seen[done] != 1 {
			t.Fatalf("progress count %d seen %d times, want once", done, seen[done])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	finished := 0
	cfg.Progress = func(done, n int, r experiment.Result) {
		finished = done
		if done == 2 {
			cancel()
		}
	}
	if _, err := AlphaBetaCollectives(ctx, pr, specs, g, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled calibration: err = %v, want context.Canceled", err)
	}
	if finished >= total {
		t.Fatalf("cancelled calibration finished all %d points", total)
	}
}
