package experiment

import (
	"context"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
)

// templateProfile is the noisy 16-node platform the template tests
// measure on.
func templateProfile(t *testing.T) cluster.Profile {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestMeasureReboundBitIdentical is the fast path's core contract: a
// point measured by rebinding its class template — no scheduler run at
// all — must be bit-identical to the scheduler engine, for every
// algorithm, including a same-class point of a different message size.
func TestMeasureReboundBitIdentical(t *testing.T) {
	pr := templateProfile(t)
	set := fastSettings()
	for _, alg := range coll.BcastAlgorithms() {
		// 65536 and 65528 land in the same structure class for every
		// algorithm (same segment count at seg 8192, and unsegmented
		// algorithms share one class per size anyway).
		for _, m := range []int{65536, 65528} {
			want, err := MeasureBcast(pr, 16, alg, m, 8192, Settings{Engine: EngineScheduler, Confidence: set.Confidence, Precision: set.Precision, MinReps: set.MinReps, MaxReps: set.MaxReps, Warmup: set.Warmup})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			r, err := newProfileRunner(pr, reg)
			if err != nil {
				t.Fatal(err)
			}
			store := mpi.NewTemplateStore()
			// First measurement captures and publishes the template...
			first, err := measurePoint(r, pr, set, Point{Alg: alg, Procs: 16, MsgBytes: 65536, SegSize: 8192}, store)
			if err != nil {
				t.Fatalf("%v: capture: %v", alg, err)
			}
			if m == 65536 {
				sameMeasurement(t, alg.String()+" capture", want, first)
			}
			if got := reg.Counter("experiment_plan_templates_total").Value(); got != 1 {
				t.Fatalf("%v: %d templates published, want 1", alg, got)
			}
			// ...and the point under test rebinds it.
			got, err := measurePoint(r, pr, set, Point{Alg: alg, Procs: 16, MsgBytes: m, SegSize: 8192}, store)
			if err != nil {
				t.Fatalf("%v m=%d: rebind: %v", alg, m, err)
			}
			sameMeasurement(t, alg.String()+" rebound", want, got)
			if n := reg.Counter("experiment_plan_rebinds_total").Value(); n != 1 {
				t.Fatalf("%v m=%d: %d rebinds counted, want 1", alg, m, n)
			}
			if n := reg.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Value(); n != 0 {
				t.Fatalf("%v m=%d: %d rebind-divergence fallbacks, want 0", alg, m, n)
			}
		}
	}
}

// TestRebindDivergenceFallsBackToCapture: a template published under a
// class key that a later point's structure does not match must be
// detected by the rebind pass; the point is then measured through the
// full capture path (still on the replay engine, bit-identically),
// the divergence is counted, and the refreshed template serves the
// class from then on.
func TestRebindDivergenceFallsBackToCapture(t *testing.T) {
	pr := templateProfile(t)
	set := fastSettings()
	opBinary := func(p *mpi.Proc) { coll.Bcast(p, coll.BcastBinary, 0, coll.Synthetic(65536), 8192) }
	opChain := func(p *mpi.Proc) { coll.Bcast(p, coll.BcastChain, 0, coll.Synthetic(65536), 8192) }

	want, err := MeasureBcast(pr, 16, coll.BcastChain, 65536, 8192, Settings{Engine: EngineScheduler, Confidence: set.Confidence, Precision: set.Precision, MinReps: set.MinReps, MaxReps: set.MaxReps, Warmup: set.Warmup})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	r, err := newProfileRunner(pr, reg)
	if err != nil {
		t.Fatal(err)
	}
	store := mpi.NewTemplateStore()
	// Poison the key: publish the binary tree's template, then measure the
	// chain under the same key.
	cls := planClass{key: "poisoned-class", store: store}
	if _, err := measureOnClass(r, 16, set, Completion, opBinary, cls); err != nil {
		t.Fatal(err)
	}
	got, err := measureOnClass(r, 16, set, Completion, opChain, cls)
	if err != nil {
		t.Fatalf("divergent point failed instead of falling back: %v", err)
	}
	sameMeasurement(t, "diverged point", want, got)
	if got.Fallback != FallbackNone {
		t.Fatalf("measurement carries fallback %q; rebind divergence is metrics-only", got.Fallback)
	}
	if n := reg.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Value(); n != 1 {
		t.Fatalf("%d rebind-divergence fallbacks counted, want 1", n)
	}
	if n := reg.Counter("experiment_plan_templates_total").Value(); n != 2 {
		t.Fatalf("%d templates published, want 2 (capture refreshed the class)", n)
	}
	// The refreshed template now matches: the next chain point rebinds.
	got, err = measureOnClass(r, 16, set, Completion, opChain, cls)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "refreshed class", want, got)
	if n := reg.Counter("experiment_plan_rebinds_total").Value(); n != 1 {
		t.Fatalf("%d rebinds counted after refresh, want 1", n)
	}
}

// distinctClasses counts the structure classes of a bcast grid.
func distinctClasses(points []Point) int {
	keys := make(map[string]bool)
	for _, pt := range points {
		key := coll.BcastClassKey(pt.Alg, pt.Procs, pt.MsgBytes, pt.SegSize)
		if pt.Kind == PointBcastThenGather {
			key += "+gatherlinear"
		}
		keys[key] = true
	}
	return len(keys)
}

// TestSweepTemplatesBitIdentical sweeps a grid (broadcasts and the
// bcast+gather estimation points) with templating on, off, and
// pre-warmed, serial and concurrent, and requires every variant to
// reproduce the scheduler engine's means bit for bit — while the
// template counters account for every point.
func TestSweepTemplatesBitIdentical(t *testing.T) {
	pr := templateProfile(t)
	set := fastSettings()
	grid := BcastGrid(16, coll.BcastAlgorithms(), []int{8192, 131072, 1 << 20}, pr.SegmentSize)
	for _, mg := range []int{64, 4096} {
		grid = append(grid, Point{Kind: PointBcastThenGather, Alg: coll.BcastBinomial, Procs: 16, MsgBytes: 131072, SegSize: pr.SegmentSize, GatherBytes: mg})
	}
	classes := distinctClasses(grid)
	if classes >= len(grid) {
		t.Fatalf("grid has %d classes over %d points; nothing would rebind", classes, len(grid))
	}

	base := Sweep{Profile: pr, Settings: set, Workers: 1, DisableTemplates: true}
	baseSet := base.Settings
	baseSet.Engine = EngineScheduler
	base.Settings = baseSet
	want, err := base.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	for _, engine := range []Engine{EngineAuto, EngineReplay} {
		for _, workers := range []int{1, 8} {
			for _, disabled := range []bool{false, true} {
				set := set
				set.Engine = engine
				reg := obs.NewRegistry()
				sw := Sweep{Profile: pr, Settings: set, Workers: workers, DisableTemplates: disabled, Metrics: reg}
				got, err := sw.Run(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				label := func(what string) string {
					return what + " (engine=" + engine.String() + ")"
				}
				for i := range got {
					if got[i].Meas.Mean != want[i].Meas.Mean {
						t.Fatalf("%s point %v: mean %x, scheduler %x (workers=%d disabled=%v)",
							label("sweep"), got[i].Point, got[i].Meas.Mean, want[i].Meas.Mean, workers, disabled)
					}
					for j := range got[i].Meas.Samples {
						if got[i].Meas.Samples[j] != want[i].Meas.Samples[j] {
							t.Fatalf("%s point %v sample %d diverges", label("sweep"), got[i].Point, j)
						}
					}
				}
				tpls := reg.Counter("experiment_plan_templates_total").Value()
				rebinds := reg.Counter("experiment_plan_rebinds_total").Value()
				singletons := reg.Counter(mPlanSingletons).Value()
				if disabled {
					if tpls != 0 || rebinds != 0 || singletons != 0 {
						t.Fatalf("%s: templating disabled but %d templates / %d rebinds / %d singletons counted", label("metrics"), tpls, rebinds, singletons)
					}
					continue
				}
				// Every point either captured (publishing a template, or
				// alone in its class in this Run-scoped store) or rebound,
				// and every class captured exactly once.
				if tpls+singletons+rebinds != int64(len(grid)) {
					t.Fatalf("%s: %d templates + %d singletons + %d rebinds != %d points (workers=%d)", label("metrics"), tpls, singletons, rebinds, len(grid), workers)
				}
				if tpls+singletons != int64(classes) {
					t.Fatalf("%s: %d templates + %d singletons for %d classes (workers=%d) — capture is not once-per-class", label("metrics"), tpls, singletons, classes, workers)
				}
				if n := reg.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Value(); n != 0 {
					t.Fatalf("%s: %d unexplained rebind divergences", label("metrics"), n)
				}
			}
		}
	}

	// A pre-warmed persistent store — a pool's, which outlives its
	// sweeps: a second sweep over the same grid captures nothing at all.
	// The measurement counters live in the pooled Runners' registry.
	reg := obs.NewRegistry()
	pool, err := NewRunnerPool(pr, 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	warm := Sweep{Profile: pr, Settings: set, Workers: 4, Pool: pool}
	if _, err := warm.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	tpls, rebinds := reg.Counter(mPlanTemplates).Value(), reg.Counter(mPlanRebinds).Value()
	got, err := warm.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Meas.Mean != want[i].Meas.Mean {
			t.Fatalf("warm sweep point %v: mean %x, scheduler %x", got[i].Point, got[i].Meas.Mean, want[i].Meas.Mean)
		}
	}
	if d := reg.Counter(mPlanTemplates).Value() - tpls; d != 0 {
		t.Fatalf("warm sweep captured %d times, want 0", d)
	}
	if d := reg.Counter(mPlanRebinds).Value() - rebinds; d != int64(len(grid)) {
		t.Fatalf("warm sweep rebound %d points, want all %d", d, len(grid))
	}
	if n := pool.Templates().Len(); n != classes {
		t.Fatalf("store holds %d templates, want %d classes", n, classes)
	}
}

// TestSweepPoolTemplatesPersist: a pool-backed sweep publishes its
// templates into the pool's store, so a later sweep over the same pool
// rebinds every point without a single capture.
func TestSweepPoolTemplatesPersist(t *testing.T) {
	pr := templateProfile(t)
	grid := BcastGrid(16, []coll.BcastAlgorithm{coll.BcastBinary, coll.BcastChain}, []int{8192, 131072}, pr.SegmentSize)
	// The measurement counters live in the Runner's registry, and pooled
	// Runners carry the pool's — so the pool gets the registry here.
	reg := obs.NewRegistry()
	pool, err := NewRunnerPool(pr, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	first := Sweep{Profile: pr, Settings: fastSettings(), Workers: 2, Pool: pool}
	if _, err := first.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if pool.Templates().Len() == 0 {
		t.Fatal("sweep published nothing into the pool's template store")
	}
	tpls := reg.Counter("experiment_plan_templates_total").Value()
	rebinds := reg.Counter("experiment_plan_rebinds_total").Value()
	if tpls == 0 {
		t.Fatal("first sweep captured nothing")
	}
	second := Sweep{Profile: pr, Settings: fastSettings(), Workers: 2, Pool: pool}
	if _, err := second.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if d := reg.Counter("experiment_plan_templates_total").Value() - tpls; d != 0 {
		t.Fatalf("second sweep over the pool captured %d times, want 0", d)
	}
	if d := reg.Counter("experiment_plan_rebinds_total").Value() - rebinds; d != int64(len(grid)) {
		t.Fatalf("second sweep rebound %d points, want %d", d, len(grid))
	}
}

// TestSweepSingletonClasses: a Run-scoped store publishes no template
// for a class with a single point in the grid (nothing could rebind it
// before the store dies), while a Pool's store, which outlives the Run,
// still publishes every class.
func TestSweepSingletonClasses(t *testing.T) {
	pr := templateProfile(t)
	// Binomial segments, so the two sizes are two one-point classes.
	grid := BcastGrid(16, []coll.BcastAlgorithm{coll.BcastBinomial}, []int{8192, 131072}, pr.SegmentSize)
	if distinctClasses(grid) != len(grid) {
		t.Fatalf("grid has %d classes over %d points, want all singletons", distinctClasses(grid), len(grid))
	}
	counts := func(reg *obs.Registry) (tpls, singletons int64) {
		return reg.Counter(mPlanTemplates).Value(), reg.Counter(mPlanSingletons).Value()
	}

	reg := obs.NewRegistry()
	scoped := Sweep{Profile: pr, Settings: fastSettings(), Workers: 1, Metrics: reg}
	if _, err := scoped.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if tpls, singletons := counts(reg); tpls != 0 || singletons != int64(len(grid)) {
		t.Fatalf("Run-scoped store: %d templates, %d singletons; want 0 and %d", tpls, singletons, len(grid))
	}

	reg = obs.NewRegistry()
	pool, err := NewRunnerPool(pr, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	pooled := Sweep{Profile: pr, Settings: fastSettings(), Workers: 1, Pool: pool}
	if _, err := pooled.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if tpls, singletons := counts(reg); tpls != int64(len(grid)) || singletons != 0 {
		t.Fatalf("pool store: %d templates, %d singletons; want %d and 0", tpls, singletons, len(grid))
	}
	if n := pool.Templates().Len(); n != len(grid) {
		t.Fatalf("pool store holds %d templates, want %d", n, len(grid))
	}
}
