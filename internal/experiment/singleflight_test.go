package experiment

import (
	"context"
	"runtime"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/stats"
)

// TestTemplateSingleFlight is the single-flight stress test (meaningful
// under -race): eight workers sweep a grid whose every point belongs to
// ONE structure class — BcastLinear is unsegmented, so BcastClassKey
// pins segs=1 and all sixteen message sizes share a class — and exactly
// one template capture may occur. Before single-flight election, each
// worker whose chunk started before the first capture published would
// re-capture the class (19.2ms wasted per duplicate vs a 5.8ms rebind)
// and race on TemplateStore.Put; now the class's first point is claimed
// by exactly one leader and everyone else rebinds, blocking briefly on
// the template future if they arrive while the capture is in flight.
func TestTemplateSingleFlight(t *testing.T) {
	// Raise GOMAXPROCS so the 8 workers actually run concurrently even on
	// a single-core CI box (Sweep.Run clamps workers to GOMAXPROCS).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := stats.LogSpaceBytes(8192, 1<<20, 16)
	grid := BcastGrid(pr.Nodes, []coll.BcastAlgorithm{coll.BcastLinear}, sizes, pr.SegmentSize)
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1, Engine: EngineReplay}

	want, err := Sweep{Profile: pr, Settings: set, Workers: 1}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	m := obs.NewRegistry()
	sw := Sweep{Profile: pr, Settings: set, Workers: 8, Metrics: m}
	got, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Meas.Mean != want[i].Meas.Mean || got[i].Meas.Reps != want[i].Meas.Reps {
			t.Fatalf("point %d (%v): concurrent mean %v (reps %d) != serial %v (reps %d)",
				i, grid[i], got[i].Meas.Mean, got[i].Meas.Reps, want[i].Meas.Mean, want[i].Meas.Reps)
		}
	}

	captures := m.Counter("experiment_plan_templates_total").Value()
	rebinds := m.Counter("experiment_plan_rebinds_total").Value()
	diverged := m.Counter(obs.Name("experiment_fallbacks_total", "reason", "rebind-divergence")).Value()
	if captures != 1 {
		t.Errorf("one structure class captured %d times under 8 workers, want exactly 1", captures)
	}
	if wantRebinds := int64(len(grid) - 1); rebinds != wantRebinds {
		t.Errorf("%d points rebound, want %d (every point but the capture)", rebinds, wantRebinds)
	}
	if diverged != 0 {
		t.Errorf("%d rebind divergences, want 0", diverged)
	}
	if groups := m.Gauge("experiment_sweep_class_groups").Value(); groups != 1 {
		t.Errorf("experiment_sweep_class_groups = %v, want 1", groups)
	}
	// Dedup counts the workers that arrived while the capture was still in
	// flight — scheduling-dependent, but never more than the rebound points.
	if dedup := m.Counter("experiment_sweep_capture_dedup_total").Value(); dedup > rebinds {
		t.Errorf("experiment_sweep_capture_dedup_total = %d > rebinds %d", dedup, rebinds)
	}
}

// TestSweepClassGroupedGridOrder pins the scheduler's output contract:
// class-grouped execution reorders the work (class leaders first, then
// the rest) but the results slice still lines up with the input
// grid, index for index, identical to a serial sweep — deterministic
// grid-order results are what the goldens, the tables, and the fitting
// layers key on.
func TestSweepClassGroupedGridOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pr, err := cluster.Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	// Sizes-major grid over all six algorithms: points of the same class
	// (same alg, neighbouring sizes for unsegmented algs) are strided
	// apart, the exact interleaving the class grouping reshuffles.
	sizes := stats.LogSpaceBytes(8192, 1<<20, 4)
	grid := BcastGrid(pr.Nodes, coll.BcastAlgorithms(), sizes, pr.SegmentSize)
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}

	want, err := Sweep{Profile: pr, Settings: set, Workers: 1}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep{Profile: pr, Settings: set, Workers: 4}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(grid) {
		t.Fatalf("got %d results for %d grid points", len(got), len(grid))
	}
	for i := range got {
		if got[i].Point != grid[i] {
			t.Fatalf("result %d is for point %v, want grid[%d] = %v", i, got[i].Point, i, grid[i])
		}
		if got[i].Meas.Mean != want[i].Meas.Mean || got[i].Meas.Reps != want[i].Meas.Reps {
			t.Fatalf("point %d (%v): grouped mean %v (reps %d) != serial %v (reps %d)",
				i, grid[i], got[i].Meas.Mean, got[i].Meas.Reps, want[i].Meas.Mean, want[i].Meas.Reps)
		}
	}
}
