package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"mpicollperf"
	"mpicollperf/internal/cluster"
	"mpicollperf/internal/core"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/selection"
)

// extConfig sizes the calib_ext workload, its γ calibration included;
// the zero value is the paper scale (the calibration defaults) over all
// seven families.
type extConfig struct {
	procs    int
	sizes    []int
	families []string
}

// resolved returns the calibration config and the concrete procs and
// sizes the estimators will use on pr.
func (e extConfig) resolved(pr cluster.Profile) (mpicollperf.CalibrationConfig, int, []int) {
	cc := mpicollperf.CalibrationConfig{Procs: e.procs, Sizes: e.sizes}
	d := defaultBcastConfig(pr)
	procs, sizes := d.procs, d.sizes
	if e.procs != 0 {
		procs = e.procs
	}
	if len(e.sizes) != 0 {
		sizes = e.sizes
	}
	return cc, procs, sizes
}

// extFamilies lists the families to calibrate.
func (e extConfig) extFamilies() []string {
	if len(e.families) != 0 {
		return e.families
	}
	return mpicollperf.Collectives()
}

// runCalibExt is the calib_ext workload at paper scale.
func runCalibExt(ctx context.Context, cfg config) (*report, error) {
	return calibExt(ctx, cfg, extConfig{})
}

// calibExt runs the calib_ext workload: all extended families on Grisou
// through CalibrateExtended, reusing the γ of a broadcast calibration
// made during set-up.
func calibExt(ctx context.Context, cfg config, ec extConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(false, cfg.hooks.delay)
	pr := seeded(cluster.Grisou(), cfg.seed)
	cc, _, _ := ec.resolved(pr)
	fams := ec.extFamilies()

	// Set-up: the broadcast calibration whose γ the extended families
	// reuse, three times (they must agree); set-up time is the median.
	var base *core.Selector
	var setups []float64
	var opts []mpicollperf.Option
	if ec.procs != 0 {
		opts = append(opts, mpicollperf.WithProcs(ec.procs))
	}
	if len(ec.sizes) != 0 {
		opts = append(opts, mpicollperf.WithSizes(ec.sizes...))
	}
	for i := 0; i < 3; i++ {
		t := time.Now()
		sel, err := mpicollperf.Calibrate(ctx, pr, opts...)
		if err != nil {
			return nil, fmt.Errorf("γ calibration: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if base == nil {
			base = sel
		} else {
			rep.op(sameModels(sel.Models, base.Models))
		}
	}
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	gamma := base.Models.Gamma

	calibrateAll := func() (map[string]*selection.ExtendedSelector, error) {
		out := make(map[string]*selection.ExtendedSelector, len(fams))
		for _, fam := range fams {
			specs, err := mpicollperf.CollectiveSpecs(fam)
			if err != nil {
				return nil, err
			}
			err = tr.do("estimate.ext_"+fam, func() (err error) {
				out[fam], err = mpicollperf.CalibrateExtended(pr, specs, gamma, cc)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("extended calibration of %s: %w", fam, err)
			}
		}
		return out, nil
	}
	// The reference: the extended path is serial, so one run of it is
	// the workers=1 reference and the untraced serial total.
	t0 := time.Now()
	ref, err := calibrateAll()
	if err != nil {
		return nil, err
	}
	w1Total := time.Since(t0).Seconds()
	want := make(map[string][]model.Hockney, len(ref))
	for fam, sel := range ref {
		want[fam] = sel.Params
		if cfg.hooks.corrupt {
			p := append([]model.Hockney(nil), sel.Params...)
			p[0].Beta = math.Nextafter(p[0].Beta, math.Inf(1))
			want[fam] = p
		}
	}
	check := func(got map[string]*selection.ExtendedSelector) {
		for _, fam := range fams {
			var mismatch error
			if !reflect.DeepEqual(got[fam].Params, want[fam]) {
				mismatch = fmt.Errorf("%s parameters differ from the reference: got %v, want %v", fam, got[fam].Params, want[fam])
			}
			rep.op(mismatch)
		}
	}

	// In-process selection over the extended families, answered by a
	// Selector carrying the reference calibration.
	sel := &core.Selector{Profile: pr, Models: base.Models, Extended: ref}
	qs := genQueries(cfg.seed, 4096, fams, []int{pr.Nodes})
	expect, err := answers([]*core.Selector{sel}, qs)
	if err != nil {
		return nil, err
	}
	if cfg.hooks.corrupt {
		expect[0].Predicted++
	}

	sm := &selectMeter{sels: []*core.Selector{sel}, qs: qs, want: expect}
	rss := &rssMeter{pid: "self"}
	mem := startMem()
	samples, err := timedLoop(cfg.seconds, minIters, rss, func() error {
		got, err := calibrateAll()
		if err != nil {
			return err
		}
		check(got)
		return nil
	}, sm.burst)
	sm.finish(rep)
	if err != nil {
		return nil, err
	}
	allocMB, gcs := mem.perIter(len(samples))
	calibSummary(rep, samples)
	rep.e2e["peak_rss_mb"] = metric{median(rss.samples), "MB"}

	degr, err := extDegradation(pr, fams, ref)
	if err != nil {
		return nil, err
	}
	rep.e2e["selection_degradation_pct"] = metric{degr, "%"}

	rep.layer["experiment.parallel_speedup"] = metric{w1Total / median(samples), "x"}
	rep.layer["go.alloc_mb"] = metric{allocMB, "MB"}
	rep.layer["go.gc_cycles"] = metric{gcs, "count"}
	if cfg.trace {
		untraced := func() (float64, error) {
			t := time.Now()
			got, err := calibrateAll()
			if err != nil {
				return 0, err
			}
			d := time.Since(t).Seconds()
			check(got)
			return d, nil
		}
		if err := traceCalibExt(rep, cfg, ec, pr, gamma, want, untraced); err != nil {
			return nil, err
		}
	}
	fillLayerDefaults(rep)
	return rep, nil
}

// extDegradation is the mean percentage by which each family's
// model-based pick is slower than the measured best algorithm of that
// family, over a fixed (P, m) grid.
func extDegradation(pr cluster.Profile, fams []string, sels map[string]*selection.ExtendedSelector) (float64, error) {
	net, err := pr.Network()
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, fam := range fams {
		specs := sels[fam].Specs
		for _, P := range []int{16, 45} {
			for _, m := range []int{16 << 10, 256 << 10} {
				times := make([]float64, len(specs))
				best := math.Inf(1)
				for i, spec := range specs {
					meas, err := experiment.Measure(net, P, experiment.Settings{}, experiment.Completion, func(p *mpi.Proc) {
						spec.Run(p, m, pr.SegmentSize)
					})
					if err != nil {
						return 0, err
					}
					times[i] = meas.Mean
					best = min(best, meas.Mean)
				}
				pick, _ := sels[fam].Best(P, m)
				sum += selection.Degradation(times[pick], best)
				n++
			}
		}
	}
	return sum / float64(n), nil
}

// traceCalibExt is calib_ext's traced run: one experiment.Measure per
// (spec, size) and one stats.RelativeHuberRegression per spec, each in
// its own span under a per-family estimate.ext_<family> span. The
// parameters must equal the untraced ones bit for bit.
func traceCalibExt(rep *report, cfg config, ec extConfig, pr cluster.Profile, gamma model.Gamma, want map[string][]model.Hockney, untraced func() (float64, error)) error {
	before, err := untraced()
	if err != nil {
		return err
	}
	tr := newTracer(true, cfg.hooks.delay)
	reg := obs.NewRegistry()
	_, procs, sizes := ec.resolved(pr)
	var measures, reps, hubIters int
	t0 := time.Now()
	for _, fam := range ec.extFamilies() {
		specs, err := mpicollperf.CollectiveSpecs(fam)
		if err != nil {
			return err
		}
		fsp := tr.start("estimate.ext_" + fam)
		got := make([]model.Hockney, len(specs))
		for i, spec := range specs {
			net, err := pr.Network()
			if err != nil {
				return err
			}
			xs := make([]float64, 0, len(sizes))
			ys := make([]float64, 0, len(sizes))
			for _, m := range sizes {
				var meas experiment.Measurement
				err := tr.do("experiment.measure", func() (err error) {
					meas, err = experiment.MeasureOn(mpi.NewRunnerOn(net, mpi.Options{Metrics: reg}), procs, experiment.Settings{}, experiment.Completion, func(p *mpi.Proc) {
						spec.Run(p, m, pr.SegmentSize)
					})
					return err
				})
				if err != nil {
					return fmt.Errorf("traced %s at m=%d: %w", spec.Name, m, err)
				}
				measures++
				reps += meas.Reps
				a, b := spec.Coefficients(procs, m, pr.SegmentSize, gamma)
				xs = append(xs, b/a)
				ys = append(ys, meas.Mean/a)
			}
			fit, err := timedHuber(tr, xs, ys)
			if err != nil {
				return err
			}
			hubIters += fit.iterations
			got[i] = fit.params
		}
		fsp.end()
		var mismatch error
		if !reflect.DeepEqual(got, want[fam]) {
			mismatch = fmt.Errorf("traced %s parameters %v differ from the untraced %v", fam, got, want[fam])
		}
		rep.op(mismatch)
	}
	traced := time.Since(t0).Seconds()
	after, err := untraced()
	if err != nil {
		return err
	}

	for _, fam := range mpicollperf.Collectives() {
		rep.layer["estimate.ext_"+fam+"_s"] = metric{tr.total("estimate.ext_" + fam), "s"}
	}
	rep.layer["experiment.points"] = metric{float64(measures), "count"}
	rep.layer["experiment.measure_s"] = metric{tr.self("experiment.measure"), "s"}
	rep.layer["stats.reps_per_point"] = metric{float64(reps) / float64(max(measures, 1)), "count"}
	rep.layer["stats.huber_iterations"] = metric{float64(hubIters), "count"}
	rep.layer["stats.huber_s"] = metric{tr.self("stats.huber"), "s"}
	mpiCounts(rep, reg)
	traceSummary(rep, tr, traced, (before+after)/2)
	return nil
}
