package estimate

import (
	"context"
	"fmt"
	"math/bits"

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
	// Segments, if non-nil, returns the segment count of a segmenting
	// algorithm at (P, m, segSize). With the name and P it forms the
	// spec's structure-class key, under which the calibration sweep
	// captures one plan template and rebinds it for every other size of
	// the class. Nil keys the class by name and P alone, which is exact
	// for algorithms that never segment and merely slower (a diverging
	// rebind re-captures) for those that do.
	Segments func(P, m, segSize int) int
}

// AlphaBetaCollectives estimates the algorithm-specific Hockney
// parameters of every spec of a collective family, measuring complete
// executions (Completion mode: the operation involves every rank
// symmetrically, so there is no root-only finish to exploit) over the
// configured size grid. All (spec, size) points run as one
// experiment.Sweep — cfg's Workers, Cache, Progress and Metrics apply,
// and a cancelled ctx stops it — followed by one Huber fit per spec;
// results[i] belongs to specs[i] and is bit-identical to measuring the
// points one by one.
func AlphaBetaCollectives(ctx context.Context, pr cluster.Profile, specs []CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) ([]AlphaBetaResult, error) {
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		return nil, err
	}
	points, err := collectivePoints(pr, specs, cfg)
	if err != nil {
		return nil, err
	}
	measured, err := cfg.sweep(pr).Run(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("estimate: α/β: %w", err)
	}
	return fitCollectives(pr, specs, g, cfg, measured)
}

// collectivePoints builds the family's grid, spec-major: the
// len(cfg.Sizes) points of specs[i] start at i*len(cfg.Sizes).
func collectivePoints(pr cluster.Profile, specs []CollectiveSpec, cfg AlphaBetaConfig) ([]experiment.Point, error) {
	ops := make([]experiment.Collective, len(specs))
	points := make([]experiment.Point, 0, len(specs)*len(cfg.Sizes))
	for i, spec := range specs {
		if spec.Coefficients == nil || spec.Run == nil {
			return nil, fmt.Errorf("estimate: incomplete spec %q", spec.Name)
		}
		ops[i] = experiment.Collective{Name: spec.Name, Run: spec.Run, Segments: spec.Segments}
		for _, m := range cfg.Sizes {
			points = append(points, experiment.Point{
				Kind:     experiment.PointCollective,
				Op:       &ops[i],
				Procs:    cfg.Procs,
				MsgBytes: m,
				SegSize:  pr.SegmentSize,
			})
		}
	}
	return points, nil
}

// fitCollectives fits every spec from its slice of the measured
// collectivePoints grid.
func fitCollectives(pr cluster.Profile, specs []CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig, measured []experiment.Result) ([]AlphaBetaResult, error) {
	out := make([]AlphaBetaResult, len(specs))
	n := len(cfg.Sizes)
	for i, spec := range specs {
		var err error
		out[i], err = fitSystem(spec.Name, cfg, measured[i*n:(i+1)*n], func(m int) Equation {
			a, b := spec.Coefficients(cfg.Procs, m, pr.SegmentSize, g)
			return Equation{MsgBytes: m, A: a, B: b}
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// segmentsOf is the Segments of a spec whose operation splits m into
// segSize-byte segments.
func segmentsOf(P, m, segSize int) int { return coll.NumSegments(m, segSize) }

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
			Segments: allreduceSegments(alg),
		})
	}
	return specs
}

// allreduceSegments is the Segments of an allreduce algorithm: the
// reduce+bcast composition segments its broadcast, and recursive
// doubling falls back to that composition at a non-power-of-two P.
func allreduceSegments(alg coll.AllreduceAlgorithm) func(P, m, segSize int) int {
	switch alg {
	case coll.AllreduceReduceBcast:
		return segmentsOf
	case coll.AllreduceRecursiveDoubling:
		return func(P, m, segSize int) int {
			if bits.OnesCount(uint(P)) == 1 {
				return 1
			}
			return segmentsOf(P, m, segSize)
		}
	}
	return nil
}

// ReduceSpecs returns estimation specs for every reduce algorithm; the
// size parameter m is the vector length in bytes.
func ReduceSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ReduceAlgorithms()))
	for _, alg := range coll.ReduceAlgorithms() {
		alg := alg
		spec := CollectiveSpec{
			Name: "reduce/" + alg.String(),
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ReduceCoefficients(alg, P, m, segSize, g)
			},
			Run: func(p *mpi.Proc, m, segSize int) {
				coll.Reduce(p, alg, 0, coll.Synthetic(m), nil, segSize)
			},
		}
		if alg == coll.ReducePipeline {
			spec.Segments = segmentsOf
		}
		specs = append(specs, spec)
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
