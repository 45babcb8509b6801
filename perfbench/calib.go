package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"mpicollperf"
	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/stats"
)

// minIters is the fewest timed iterations a run makes, however short
// -seconds is.
const minIters = 3

// seeded applies the workload seed to a profile's noise stream; seed 0
// keeps the profile's own seed, which reproduces the paper tables.
func seeded(pr cluster.Profile, seed int64) cluster.Profile {
	if seed != 0 {
		pr.Net.NoiseSeed = seed
	}
	return pr
}

// sameModels reports whether two broadcast calibrations are
// bit-identical.
func sameModels(got, want model.BcastModels) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s models differ from the workers=1 reference: got %v, want %v", want.Cluster, got.Params, want.Params)
	}
	return nil
}

// nudged returns a copy of m whose first algorithm's α is one ulp off:
// the expectation the corrupt hook substitutes.
func nudged(m model.BcastModels) model.BcastModels {
	params := make(map[coll.BcastAlgorithm]model.Hockney, len(m.Params))
	for alg, p := range m.Params {
		params[alg] = p
	}
	alg := coll.BcastAlgorithms()[0]
	p := params[alg]
	p.Alpha = math.Nextafter(p.Alpha, math.Inf(1))
	params[alg] = p
	m.Params = params
	return m
}

// calibSummary fills calib_s and notes the sample count and the
// maximum; about ten samples a run support no tail percentile.
func calibSummary(rep *report, samples []float64) {
	rep.e2e["calib_s"] = metric{median(samples), "s"}
	rep.note("calibration: n=%d, median %.4fs, max %.4fs", len(samples), median(samples), quantile(samples, 1))
}

// bcastConfig mirrors the defaults Calibrate resolves for a profile
// (estimate.AlphaBetaConfig's zero value), so the traced run measures the
// same grid points the untraced calibration does.
type bcastConfig struct {
	procs, gatherBytes int
	sizes              []int
}

func defaultBcastConfig(pr cluster.Profile) bcastConfig {
	procs := pr.Nodes / 2
	if procs < 4 {
		procs = min(4, pr.Nodes)
	}
	return bcastConfig{procs: procs, gatherBytes: 256, sizes: stats.LogSpaceBytes(8192, 4<<20, 10)}
}

// runCalibBcast is the calib_bcast workload: cold broadcast
// calibrations of Grisou then Gros through the public Calibrate with
// default options.
func runCalibBcast(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	tr := newTracer(false, cfg.hooks.delay)
	profiles := []cluster.Profile{seeded(cluster.Grisou(), cfg.seed), seeded(cluster.Gros(), cfg.seed)}

	// serialPair calibrates both platforms at workers=1: the set-up
	// reference, and the untraced run the traced one is compared with.
	serialPair := func() ([]*core.Selector, float64, error) {
		t := time.Now()
		sels := make([]*core.Selector, len(profiles))
		for i, pr := range profiles {
			sel, err := mpicollperf.Calibrate(ctx, pr, mpicollperf.WithWorkers(1))
			if err != nil {
				return nil, 0, fmt.Errorf("workers=1 calibration of %s: %w", pr.Name, err)
			}
			sels[i] = sel
		}
		return sels, time.Since(t).Seconds(), nil
	}

	// Set-up: the workers=1 reference every later calibration must equal.
	ref, w1Total, err := serialPair()
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metric{w1Total, "s"}
	want := make([]model.BcastModels, len(ref))
	for i, sel := range ref {
		want[i] = sel.Models
		if cfg.hooks.corrupt {
			want[i] = nudged(want[i])
		}
	}

	calibratePair := func() error {
		for i, pr := range profiles {
			var sel *core.Selector
			err := tr.do("core.calibrate", func() (err error) {
				sel, err = mpicollperf.Calibrate(ctx, pr)
				return err
			})
			if err == nil {
				err = sameModels(sel.Models, want[i])
			}
			rep.op(err)
		}
		return nil
	}
	maxP := []int{profiles[0].Nodes, profiles[1].Nodes}
	qs := genQueries(cfg.seed, 4096, []string{core.OpBcast}, maxP)
	expect, err := answers(ref, qs)
	if err != nil {
		return nil, err
	}
	if cfg.hooks.corrupt {
		expect[0].Predicted++
	}

	sm := &selectMeter{sels: ref, qs: qs, want: expect}
	rss := &rssMeter{pid: "self"}
	mem := startMem()
	samples, err := timedLoop(cfg.seconds, minIters, rss, calibratePair, sm.burst)
	sm.finish(rep)
	if err != nil {
		return nil, err
	}
	allocMB, gcs := mem.perIter(len(samples))
	calibSummary(rep, samples)
	rep.e2e["peak_rss_mb"] = metric{median(rss.samples), "MB"}

	degr, err := bcastDegradation(ctx, profiles, ref)
	if err != nil {
		return nil, err
	}
	rep.e2e["selection_degradation_pct"] = metric{degr, "%"}

	rep.layer["experiment.parallel_speedup"] = metric{w1Total / median(samples), "x"}
	rep.layer["go.alloc_mb"] = metric{allocMB, "MB"}
	rep.layer["go.gc_cycles"] = metric{gcs, "count"}
	if cfg.trace {
		untraced := func() (float64, error) {
			sels, d, err := serialPair()
			for i := range sels {
				rep.op(sameModels(sels[i].Models, want[i]))
			}
			return d, err
		}
		if err := traceCalibBcast(ctx, rep, cfg, profiles, want, untraced); err != nil {
			return nil, err
		}
		// The serve layer has no workload of its own in the gated set,
		// so this traced run measures it too, in process.
		refs, err := buildDaemonRefs(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if _, err := traceServe(rep, cfg, refs); err != nil {
			return nil, err
		}
	}
	fillLayerDefaults(rep)
	return rep, nil
}

// bcastDegradation is the mean percentage by which the model-based
// broadcast pick is slower than the measured oracle, over a fixed
// (P, m) grid on every profile.
func bcastDegradation(ctx context.Context, profiles []cluster.Profile, sels []*core.Selector) (float64, error) {
	var sum float64
	var n int
	for i, pr := range profiles {
		sw := experiment.Sweep{Profile: pr, Settings: experiment.DefaultSettings()}
		for _, P := range []int{16, 64} {
			for _, m := range []int{16 << 10, 256 << 10, 4 << 20} {
				o, err := selection.OracleSweep(ctx, sw, P, m)
				if err != nil {
					return 0, err
				}
				c, err := sels[i].Best(P, m)
				if err != nil {
					return 0, err
				}
				sum += selection.Degradation(o.Times[c.Alg], o.BestTime())
				n++
			}
		}
	}
	return sum / float64(n), nil
}

// traceCalibBcast is calib_bcast's traced run at workers=1: every grid
// point measured alone through a Sweep on one shared RunnerPool and
// classified as capture, rebind or fallback from the registry's counter
// deltas, then the fit through estimate.ModelsCtx over the cache that
// sweep filled, and the Huber regressions redone from the measured
// means. The fitted models must equal the untraced ones bit for bit.
func traceCalibBcast(ctx context.Context, rep *report, cfg config, profiles []cluster.Profile, want []model.BcastModels, untraced func() (float64, error)) error {
	before, err := untraced()
	if err != nil {
		return err
	}
	tr := newTracer(true, cfg.hooks.delay)
	reg := obs.NewRegistry()
	var points, classes, hubIters int
	var repsTotal int64
	t0 := time.Now()
	for i, pr := range profiles {
		bc := defaultBcastConfig(pr)
		pool, err := experiment.NewRunnerPool(pr, 1, reg)
		if err != nil {
			return err
		}
		cache := experiment.NewCache()
		sw := experiment.Sweep{Profile: pr, Workers: 1, Pool: pool, Cache: cache, Metrics: reg}
		seen := map[string]bool{}
		measure := func(pt experiment.Point) (experiment.Measurement, error) {
			key := coll.BcastClassKey(pt.Alg, pt.Procs, pt.MsgBytes, pt.SegSize)
			if pt.Kind == experiment.PointBcastThenGather {
				key += "+gatherlinear"
			}
			if !seen[key] {
				seen[key] = true
				classes++
			}
			tpl, fb := reg.Counter(cTemplates).Value(), fallbackTotal(reg)
			sp := tr.start("experiment.point")
			res, err := sw.Run(ctx, []experiment.Point{pt})
			kind := "experiment.rebind"
			switch {
			case fallbackTotal(reg) > fb:
				kind = "experiment.fallback"
			case reg.Counter(cTemplates).Value() > tpl:
				kind = "experiment.capture"
			}
			sp.end(kind)
			if err != nil {
				return experiment.Measurement{}, err
			}
			points++
			repsTotal += int64(res[0].Meas.Reps)
			return res[0].Meas, nil
		}

		gsp := tr.start("estimate.gamma")
		for p := 2; p <= min(pr.MaxLinearFanout, pr.Nodes); p++ {
			if _, err := measure(experiment.Point{Kind: experiment.PointBcast, Alg: coll.BcastLinear, Procs: p, MsgBytes: pr.SegmentSize}); err != nil {
				return err
			}
		}
		gsp.end()
		means := map[coll.BcastAlgorithm][]float64{}
		asp := tr.start("experiment.grid")
		for _, alg := range coll.BcastAlgorithms() {
			for _, m := range bc.sizes {
				meas, err := measure(experiment.Point{Kind: experiment.PointBcastThenGather, Alg: alg, Procs: bc.procs,
					MsgBytes: m, SegSize: pr.SegmentSize, GatherBytes: bc.gatherBytes})
				if err != nil {
					return err
				}
				means[alg] = append(means[alg], meas.Mean)
			}
		}
		asp.end()

		fitReg := obs.NewRegistry()
		var bm model.BcastModels
		err = tr.do("estimate.fit", func() (err error) {
			bm, _, err = estimate.ModelsCtx(ctx, pr, estimate.AlphaBetaConfig{Workers: 1, Cache: cache, Metrics: fitReg})
			return err
		})
		if err == nil && fitReg.Counter(cMeasured).Value() != 0 {
			err = fmt.Errorf("traced fit of %s re-measured %d points the traced sweep had cached", pr.Name, fitReg.Counter(cMeasured).Value())
		}
		if err == nil {
			err = sameModels(bm, want[i])
		}
		rep.op(err)
		for _, alg := range coll.BcastAlgorithms() {
			n, err := huberAlphaBeta(tr, pr, bc, alg, bm.Gamma, means[alg])
			if err == nil && n.params != bm.Params[alg] {
				err = fmt.Errorf("traced Huber fit of %s/%v = %+v, ModelsCtx = %+v", pr.Name, alg, n.params, bm.Params[alg])
			}
			rep.op(err)
			hubIters += n.iterations
		}
	}
	traced := time.Since(t0).Seconds()
	after, err := untraced()
	if err != nil {
		return err
	}

	rebinds := reg.Counter(cRebinds).Value()
	rep.layer["experiment.points"] = metric{float64(points), "count"}
	rep.layer["experiment.classes"] = metric{float64(classes), "count"}
	rep.layer["experiment.rebinds"] = metric{float64(rebinds), "count"}
	rep.layer["experiment.rebind_ratio"] = metric{ratio(int(rebinds), points-classes), "ratio"}
	rep.layer["experiment.capture_s"] = metric{tr.self("experiment.capture"), "s"}
	rep.layer["experiment.rebind_s"] = metric{tr.self("experiment.rebind"), "s"}
	rep.layer["experiment.fallback_s"] = metric{tr.self("experiment.fallback"), "s"}
	rep.layer["stats.reps_per_point"] = metric{float64(repsTotal) / float64(max(points, 1)), "count"}
	rep.layer["stats.huber_iterations"] = metric{float64(hubIters), "count"}
	rep.layer["stats.huber_s"] = metric{tr.self("stats.huber"), "s"}
	rep.layer["estimate.gamma_s"] = metric{tr.total("estimate.gamma"), "s"}
	rep.layer["estimate.fit_s"] = metric{tr.self("estimate.fit"), "s"}
	mpiCounts(rep, reg)
	traceSummary(rep, tr, traced, (before+after)/2)
	return nil
}

// huberFit is one redone α/β regression.
type huberFit struct {
	params     model.Hockney
	iterations int
}

// huberAlphaBeta rebuilds one algorithm's Fig. 4 system from its
// measured means exactly as estimate.ModelsCtx does and solves it with
// stats.RelativeHuberRegression inside a stats.huber span.
func huberAlphaBeta(tr *tracer, pr cluster.Profile, bc bcastConfig, alg coll.BcastAlgorithm, g model.Gamma, means []float64) (huberFit, error) {
	xs := make([]float64, len(bc.sizes))
	ys := make([]float64, len(bc.sizes))
	for i, m := range bc.sizes {
		ab, bb := model.Coefficients(alg, bc.procs, m, pr.SegmentSize, g)
		ag, bg := model.GatherLinearCoefficients(bc.procs, bc.gatherBytes)
		a, b := ab+ag, bb+bg
		xs[i], ys[i] = b/a, means[i]/a
	}
	return timedHuber(tr, xs, ys)
}

// timedHuber runs the relative Huber regression in a stats.huber span
// and clamps the parameters the way the estimators do.
func timedHuber(tr *tracer, xs, ys []float64) (huberFit, error) {
	var fit stats.LinearFit
	err := tr.do("stats.huber", func() (err error) {
		fit, err = stats.RelativeHuberRegression(xs, ys)
		return err
	})
	if err != nil {
		return huberFit{}, err
	}
	p := model.Hockney{Alpha: fit.Intercept, Beta: fit.Slope}
	if p.Alpha < 0 {
		p.Alpha = 0
	}
	if p.Beta < 0 {
		p.Beta = 0
	}
	return huberFit{p, fit.Iterations}, nil
}
