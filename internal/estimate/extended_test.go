package estimate

import (
	"context"
	"math"
	"strings"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
)

func TestAllSpecFamiliesComplete(t *testing.T) {
	fams := AllSpecFamilies()
	want := map[string]int{
		"allgather":      4,
		"allreduce":      3,
		"alltoall":       3,
		"reduce":         3,
		"gather":         3,
		"scatter":        2,
		"reduce_scatter": 3,
	}
	if len(fams) != len(want) {
		t.Fatalf("families = %d, want %d", len(fams), len(want))
	}
	for name, n := range want {
		specs := fams[name]
		if len(specs) != n {
			t.Errorf("%s: %d specs, want %d", name, len(specs), n)
		}
		for _, s := range specs {
			if !strings.HasPrefix(s.Name, name+"/") {
				t.Errorf("spec %q not under family %q", s.Name, name)
			}
			if s.Run == nil || s.Coefficients == nil {
				t.Errorf("spec %q incomplete", s.Name)
			}
		}
	}
}

// TestEverySpecRunsAndFits smoke-tests the generic estimation over every
// extended spec: the operation executes, the system is well-formed, and
// the fitted β is positive.
func TestEverySpecRunsAndFits(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	g := model.UnitGamma()
	cfg := AlphaBetaConfig{Procs: 8, Sizes: []int{2048, 16384, 131072}, Settings: fastSettings()}
	for name, specs := range AllSpecFamilies() {
		results, err := AlphaBetaCollectives(context.Background(), pr, specs, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, spec := range specs {
			res := results[i]
			if res.Params.Beta <= 0 {
				t.Errorf("%s: β = %v", spec.Name, res.Params.Beta)
			}
			if len(res.Equations) != 3 {
				t.Errorf("%s: %d equations", spec.Name, len(res.Equations))
			}
			for _, eq := range res.Equations {
				if eq.A <= 0 || eq.T <= 0 {
					t.Errorf("%s: degenerate equation %+v", spec.Name, eq)
				}
			}
		}
	}
}

// TestSpecPredictionAccuracy checks that, for a representative spec of
// each family, the fitted model predicts a held-out size within tolerance.
func TestSpecPredictionAccuracy(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	cfg := AlphaBetaConfig{Procs: 16, Sizes: []int{4096, 32768, 262144, 1 << 20}, Settings: fastSettings()}
	const held = 131072
	for _, spec := range []CollectiveSpec{
		AllgatherSpecs()[0],     // ring
		AllreduceSpecs()[2],     // ring
		AlltoallSpecs()[1],      // pairwise
		ReduceSpecs()[1],        // binomial
		GatherSpecs()[0],        // linear nosync
		ScatterSpecs()[1],       // binomial
		ReduceScatterSpecs()[0], // ring
	} {
		results, err := AlphaBetaCollectives(context.Background(), pr, []CollectiveSpec{spec}, gr.Gamma, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := results[0]
		a, b := spec.Coefficients(16, held, pr.SegmentSize, gr.Gamma)
		pred := a*res.Params.Alpha + b*res.Params.Beta
		net, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		meas, err := experiment.Measure(net, 16, fastSettings(), experiment.Completion, func(p *mpi.Proc) {
			spec.Run(p, held, pr.SegmentSize)
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pred/meas.Mean - 1)
		if rel > 0.35 {
			t.Errorf("%s: prediction %v vs measured %v (%.0f%% off)",
				spec.Name, pred, meas.Mean, rel*100)
		}
	}
}

func TestAlphaBetaCollectiveValidation(t *testing.T) {
	pr, _ := cluster.Grisou().WithNodes(8)
	g := model.UnitGamma()
	good := AllgatherSpecs()[0]
	if _, err := AlphaBetaCollectives(context.Background(), pr, []CollectiveSpec{{Name: "nil"}}, g,
		AlphaBetaConfig{Procs: 4, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("nil spec members should fail")
	}
	if _, err := AlphaBetaCollectives(context.Background(), pr, []CollectiveSpec{good}, g,
		AlphaBetaConfig{Procs: 999, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("bad procs should fail")
	}
	// Degenerate coefficients (P forced to 1 via spec) are rejected.
	degenerate := CollectiveSpec{
		Name:         "degenerate",
		Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) { return 0, 0 },
		Run:          good.Run,
	}
	if _, err := AlphaBetaCollectives(context.Background(), pr, []CollectiveSpec{degenerate}, g,
		AlphaBetaConfig{Procs: 4, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("zero coefficient should fail")
	}
}
