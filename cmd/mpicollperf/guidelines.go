package main

import (
	"context"
	"fmt"
	"io"

	"mpicollperf/internal/experiment"
	"mpicollperf/internal/guideline"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
)

// runVerifyGuidelines is the `mpicollperf verify-guidelines` subcommand:
// it fans the built-in guideline registry out over a platform ×
// perturbation × (P, m) grid, renders the per-guideline summary, writes
// the structured JSON artifact, and fails (non-zero exit) when any
// guideline is violated — the shape `make guidelines` gates CI on.
func runVerifyGuidelines(args []string, stdout, stderr io.Writer) error {
	fs, c := commandFlags("verify-guidelines", stderr, "both", withWorkers|withEngine|withMetrics)
	quick := fs.Bool("quick", false, "reduced grid for a fast smoke gate")
	procsFlag := fs.String("procs", "", "comma-separated communicator sizes (default 4,8,16)")
	sizesFlag := fs.String("sizes", "", "comma-separated message sizes in bytes (default 1024,16384,131072,1048576)")
	perturbations := fs.Int("perturbations", 2, "random perturbed platforms per cluster (deterministic from -seed)")
	perturbFlag := fs.String("perturb", "", "additional explicit perturbation spec to compose onto every cluster")
	seed := fs.Int64("seed", 1, "seed for the random perturbations")
	intensity := fs.Float64("intensity", 0.5, "intensity of the random perturbations in (0, 1]")
	outPath := fs.String("out", "results/guidelines.json", "path of the JSON artifact (empty = skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	profiles, err := clusterProfiles(c.cluster)
	if err != nil {
		return err
	}
	for i, pr := range profiles {
		if pr.Nodes > 16 {
			if profiles[i], err = pr.WithNodes(16); err != nil {
				return err
			}
		}
	}
	engine, err := experiment.ParseEngine(c.engine)
	if err != nil {
		return err
	}
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1, Engine: engine}

	h := guideline.Harness{
		Profiles:            profiles,
		RandomPerturbations: *perturbations,
		Seed:                *seed,
		Intensity:           *intensity,
		Settings:            set,
		Workers:             c.workers,
		Metrics:             obs.NewRegistry(),
	}
	if h.Procs, err = parseIntList(*procsFlag); err != nil {
		return fmt.Errorf("-procs: %w", err)
	}
	if h.Sizes, err = parseIntList(*sizesFlag); err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	if *perturbFlag != "" {
		spec, err := perturb.Parse(*perturbFlag)
		if err != nil {
			return err
		}
		h.Perturbations = append(h.Perturbations, spec)
	}
	if *quick {
		h.Profiles = profiles[:1]
		h.RandomPerturbations = 1
		if h.Procs == nil {
			h.Procs = []int{4, 8}
		}
		if h.Sizes == nil {
			h.Sizes = []int{1 << 10, 64 << 10}
		}
	}

	rep, err := h.Run(context.Background())
	if err != nil {
		return err
	}
	if err := rep.Render(stdout); err != nil {
		return err
	}
	if *outPath != "" {
		if err := rep.WriteJSON(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(wrote %s)\n", *outPath)
	}
	if c.metricsPath != "" {
		if err := c.writeMetrics(h.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(wrote %s)\n", c.metricsPath)
	}
	if viol := rep.Violations(); len(viol) > 0 {
		return fmt.Errorf("%d of %d guideline checks violated", len(viol), len(rep.Checks))
	}
	fmt.Fprintf(stdout, "%d checks across %d families: all guidelines hold\n", len(rep.Checks), rep.FamilyCount())
	return nil
}
