package selection

import (
	"context"
	"fmt"
	"math"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/model"
)

// ExtendedSelector applies the paper's model-based selection to any
// collective family calibrated through estimate.AlphaBetaCollectives —
// allgather, allreduce, alltoall, reduce, gather, scatter and
// reduce-scatter — realising the paper's future-work claim that the
// approach generalises beyond broadcast.
type ExtendedSelector struct {
	// Cluster names the platform.
	Cluster string
	// SegSize is the platform segment size forwarded to the models.
	SegSize int
	// Gamma is the platform's γ(P).
	Gamma model.Gamma
	// Specs are the calibrated algorithms of one collective family.
	Specs []estimate.CollectiveSpec
	// Params holds fitted per-algorithm parameters, indexed like Specs.
	Params []model.Hockney
}

// CalibrateExtended fits per-algorithm parameters for a collective family
// on a platform, reusing an already-estimated γ. Every (spec, size)
// experiment of the family runs in one calibration sweep under ctx, so a
// cancelled context stops it between grid points and returns ctx.Err().
func CalibrateExtended(ctx context.Context, pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, cfg estimate.AlphaBetaConfig) (*ExtendedSelector, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("selection: no specs to calibrate")
	}
	res, err := estimate.AlphaBetaCollectives(ctx, pr, specs, g, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("selection: calibration: %w", err)
	}
	sel := &ExtendedSelector{
		Cluster: pr.Name,
		SegSize: pr.SegmentSize,
		Gamma:   g,
		Specs:   specs,
		Params:  make([]model.Hockney, len(specs)),
	}
	for i, r := range res {
		sel.Params[i] = r.Params
	}
	return sel, nil
}

// Predict returns the modelled time of spec i for (P, m).
func (s *ExtendedSelector) Predict(i, P, m int) float64 {
	a, b := s.Specs[i].Coefficients(P, m, s.SegSize, s.Gamma)
	return a*s.Params[i].Alpha + b*s.Params[i].Beta
}

// Best returns the index and name of the algorithm with the smallest
// predicted time for (P, m).
func (s *ExtendedSelector) Best(P, m int) (int, string) {
	best, bestT := 0, math.Inf(1)
	for i := range s.Specs {
		if t := s.Predict(i, P, m); t < bestT {
			best, bestT = i, t
		}
	}
	return best, s.Specs[best].Name
}
