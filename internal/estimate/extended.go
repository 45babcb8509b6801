package estimate

import (
	"fmt"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
)

// CollectiveSpec generalises the paper's per-algorithm estimation beyond
// broadcast: any collective whose implementation-derived model is linear
// in (α, β) can be calibrated by measuring it over a size grid and solving
// the resulting system — the extension the paper's conclusion projects.
type CollectiveSpec struct {
	// Name identifies the (collective, algorithm) pair, e.g.
	// "allgather/ring".
	Name string
	// Coefficients returns the (a, b) of T = a·α + b·β for the operation
	// at the given process count and size parameter.
	Coefficients func(P, m, segSize int, g model.Gamma) (a, b float64)
	// Run executes one instance of the operation on every rank; m is the
	// same size parameter passed to Coefficients.
	Run func(p *mpi.Proc, m, segSize int)
}

// AlphaBetaCollective estimates the algorithm-specific Hockney parameters
// for an arbitrary collective, measuring complete executions (Completion
// mode: the operation involves every rank symmetrically, so there is no
// root-only finish to exploit) over the configured size grid.
func AlphaBetaCollective(pr cluster.Profile, spec CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) (AlphaBetaResult, error) {
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		return AlphaBetaResult{}, err
	}
	if spec.Coefficients == nil || spec.Run == nil {
		return AlphaBetaResult{}, fmt.Errorf("estimate: incomplete spec %q", spec.Name)
	}
	res := AlphaBetaResult{Equations: make([]Equation, 0, len(cfg.Sizes))}
	xs := make([]float64, 0, len(cfg.Sizes))
	ys := make([]float64, 0, len(cfg.Sizes))
	net, err := pr.Network()
	if err != nil {
		return AlphaBetaResult{}, err
	}
	for _, m := range cfg.Sizes {
		meas, err := experiment.Measure(net, cfg.Procs, cfg.Settings, experiment.Completion, func(p *mpi.Proc) {
			spec.Run(p, m, pr.SegmentSize)
		})
		if err != nil {
			return AlphaBetaResult{}, fmt.Errorf("estimate: %s at m=%d: %w", spec.Name, m, err)
		}
		a, b := spec.Coefficients(cfg.Procs, m, pr.SegmentSize, g)
		if a <= 0 {
			return AlphaBetaResult{}, fmt.Errorf("estimate: degenerate coefficient a=%v for %s at m=%d", a, spec.Name, m)
		}
		res.Equations = append(res.Equations, Equation{MsgBytes: m, A: a, B: b, T: meas.Mean})
		xs = append(xs, b/a)
		ys = append(ys, meas.Mean/a)
	}
	res.Fit, res.Params, err = solveHockney(xs, ys)
	if err != nil {
		return AlphaBetaResult{}, err
	}
	return res, nil
}

// AllgatherSpecs returns estimation specs for every allgather algorithm;
// the size parameter m is the per-rank block size.
func AllgatherSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.AllgatherAlgorithms()))
	for _, alg := range coll.AllgatherAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "allgather/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.AllgatherCoefficients(alg, P, m, segSize, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				coll.Allgather(p, alg, coll.Synthetic(m*p.Size()), m)
			},
		})
	}
	return specs
}

// AllreduceSpecs returns estimation specs for every allreduce algorithm;
// the size parameter m is the vector length in bytes.
func AllreduceSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.AllreduceAlgorithms()))
	for _, alg := range coll.AllreduceAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "allreduce/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.AllreduceCoefficients(alg, P, m, segSize, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				coll.Allreduce(p, alg, coll.Synthetic(m), nil, segSize)
			},
		})
	}
	return specs
}

// ReduceSpecs returns estimation specs for every reduce algorithm; the
// size parameter m is the vector length in bytes.
func ReduceSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ReduceAlgorithms()))
	for _, alg := range coll.ReduceAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "reduce/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ReduceCoefficients(alg, P, m, segSize, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				coll.Reduce(p, alg, 0, coll.Synthetic(m), nil, segSize)
			},
		})
	}
	return specs
}

// GatherSpecs returns estimation specs for every gather algorithm; the
// size parameter m is the per-rank block size.
func GatherSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.GatherAlgorithms()))
	for _, alg := range coll.GatherAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "gather/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.GatherCoefficients(alg, P, m, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				if p.Rank() == 0 {
					coll.Gather(p, alg, 0, coll.Synthetic(m*p.Size()), m)
				} else {
					coll.Gather(p, alg, 0, coll.Synthetic(m), m)
				}
			},
		})
	}
	return specs
}

// ScatterSpecs returns estimation specs for every scatter algorithm; the
// size parameter m is the per-rank block size.
func ScatterSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ScatterAlgorithms()))
	for _, alg := range coll.ScatterAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "scatter/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ScatterCoefficients(alg, P, m, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				if p.Rank() == 0 {
					coll.Scatter(p, alg, 0, coll.Synthetic(m*p.Size()), m)
				} else {
					coll.Scatter(p, alg, 0, coll.Synthetic(m), m)
				}
			},
		})
	}
	return specs
}

// ReduceScatterSpecs returns estimation specs for every reduce-scatter
// algorithm; the size parameter m is the per-rank block size.
func ReduceScatterSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ReduceScatterAlgorithms()))
	for _, alg := range coll.ReduceScatterAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "reduce_scatter/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ReduceScatterCoefficients(alg, P, m, segSize, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				coll.ReduceScatter(p, alg, coll.Synthetic(m*p.Size()), nil, m)
			},
		})
	}
	return specs
}

// AllSpecFamilies returns every extended collective family, keyed by name.
func AllSpecFamilies() map[string][]CollectiveSpec {
	return map[string][]CollectiveSpec{
		"allgather":      AllgatherSpecs(),
		"allreduce":      AllreduceSpecs(),
		"alltoall":       AlltoallSpecs(),
		"reduce":         ReduceSpecs(),
		"gather":         GatherSpecs(),
		"scatter":        ScatterSpecs(),
		"reduce_scatter": ReduceScatterSpecs(),
	}
}

// AlltoallSpecs returns estimation specs for every alltoall algorithm; the
// size parameter m is the per-pair block size.
func AlltoallSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.AlltoallAlgorithms()))
	for _, alg := range coll.AlltoallAlgorithms() {
		alg := alg
		specs = append(specs, CollectiveSpec{
			Name: "alltoall/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.AlltoallCoefficients(alg, P, m, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				n := m * p.Size()
				coll.Alltoall(p, alg, coll.Synthetic(n), coll.Synthetic(n), m)
			},
		})
	}
	return specs
}
