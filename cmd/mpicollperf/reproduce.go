package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpicollperf/internal/atomicfile"
	"mpicollperf/internal/cluster"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/guideline"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/stats"
	"mpicollperf/internal/tables"
)

type runConfig struct {
	profiles []cluster.Profile
	sizes    []int
	// fig1P, table3P and fig5Ps map cluster name to process counts.
	fig1P   map[string]int
	table3P map[string]int
	fig5Ps  map[string][]int
	// estimation process counts (paper: 40 on Grisou, 124 on Gros).
	estProcs map[string]int
	settings experiment.Settings
	out      io.Writer
	csv      bool
	outDir   string
}

// runReproduce is `mpicollperf reproduce`: it regenerates the paper's
// evaluation artifacts.
func runReproduce(args []string, stdout, stderr io.Writer) error {
	fs, c := commandFlags("reproduce", stderr, "both", 0)
	quick := fs.Bool("quick", false, "reduced scale for a fast run")
	csv := fs.Bool("csv", false, "print CSV blocks after each artifact")
	outDir := fs.String("out", "", "directory for per-artifact CSV files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}

	cfg, err := buildConfig(c.cluster, *quick)
	if err != nil {
		return err
	}
	cfg.out = stdout
	cfg.csv = *csv
	cfg.outDir = *outDir
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}

	for _, target := range targets {
		start := time.Now()
		var err error
		switch target {
		case "fig1":
			err = runFig1(cfg)
		case "table1":
			err = runTable1(cfg)
		case "table2":
			err = runFig5Table3(cfg, false, false)
		case "fig5":
			err = runFig5Table3(cfg, true, false)
		case "table3":
			err = runFig5Table3(cfg, false, true)
		case "ext":
			err = runExt(cfg)
		case "robustness":
			err = runRobustness(cfg)
		case "metrics":
			err = runMetrics(cfg)
		case "all":
			if err = runFig1(cfg); err == nil {
				if err = runTable1(cfg); err == nil {
					err = runFig5Table3(cfg, true, true) // includes table2
				}
			}
		default:
			err = fmt.Errorf("unknown target %q", target)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", target, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func buildConfig(clusterFlag string, quick bool) (runConfig, error) {
	profiles, err := clusterProfiles(clusterFlag)
	if err != nil {
		return runConfig{}, err
	}
	cfg := runConfig{
		profiles: profiles,
		sizes:    tables.PaperSizes(),
		fig1P:    map[string]int{"grisou": 90, "gros": 124},
		table3P:  map[string]int{"grisou": 90, "gros": 100},
		fig5Ps:   map[string][]int{"grisou": {50, 80, 90}, "gros": {80, 100, 124}},
		estProcs: map[string]int{"grisou": 40, "gros": 124},
		settings: experiment.DefaultSettings(),
	}
	if quick {
		for i, pr := range cfg.profiles {
			small, err := pr.WithNodes(24)
			if err != nil {
				return runConfig{}, err
			}
			cfg.profiles[i] = small
		}
		cfg.sizes = stats.LogSpaceBytes(8192, 1<<20, 5)
		cfg.fig1P = map[string]int{"grisou": 24, "gros": 24}
		cfg.table3P = map[string]int{"grisou": 24, "gros": 24}
		cfg.fig5Ps = map[string][]int{"grisou": {12, 24}, "gros": {12, 24}}
		cfg.estProcs = map[string]int{"grisou": 12, "gros": 12}
		cfg.settings = experiment.Settings{
			Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1,
		}
	}
	return cfg, nil
}

// emit prints an artifact and optionally prints its CSV (or JSON) form and
// writes it to the file named file in the output directory.
func emit(cfg runConfig, file, text, csv string) error {
	fmt.Fprintln(cfg.out, text)
	if cfg.csv {
		fmt.Fprintln(cfg.out, csv)
	}
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, file)
		if err := atomicfile.WriteFile(path, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "(wrote %s)\n", path)
	}
	return nil
}

func runFig1(cfg runConfig) error {
	for _, pr := range cfg.profiles {
		p := min(cfg.fig1P[pr.Name], pr.Nodes)
		fig, err := tables.GenerateFig1(pr, p, cfg.sizes, cfg.settings)
		if err != nil {
			return err
		}
		if err := emit(cfg, fmt.Sprintf("fig1_%s.csv", pr.Name), fig.Render(), fig.CSV()); err != nil {
			return err
		}
		fmt.Fprintln(cfg.out, fig.PlotFig1(64, 16))
	}
	return nil
}

// runExt generates the beyond-broadcast extension table: model-based
// selection for allgather/allreduce/alltoall/reduce/gather/scatter/
// reduce-scatter (the paper's future work).
func runExt(cfg runConfig) error {
	for _, pr := range cfg.profiles {
		p := cfg.estProcs[pr.Name]
		if p == 0 || p > pr.Nodes {
			p = pr.Nodes / 2
		}
		sizes := []int{4096, 65536, 1 << 20}
		tab, err := tables.GenerateExtTable(pr, p, sizes, cfg.settings)
		if err != nil {
			return err
		}
		if err := emit(cfg, fmt.Sprintf("ext_%s.csv", pr.Name), tab.Render(), tab.CSV()); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "worst extension degradation: %.1f%%\n\n", tab.MaxDegradation())
	}
	return nil
}

// runRobustness generates the robustness artifact: models are fitted on
// the quiet cluster (exactly as for fig5/table3), then both selectors are
// scored against the oracle on deterministically perturbed variants of
// increasing intensity. The whole artifact is reproducible: the
// perturbation specs derive from a fixed seed.
func runRobustness(cfg runConfig) error {
	tab2, err := tables.GenerateTable2(cfg.profiles, cfg.estProcs, cfg.settings)
	if err != nil {
		return err
	}
	for _, pr := range cfg.profiles {
		sel := selection.ModelBased{Models: tab2.Models[pr.Name]}
		p := min(cfg.table3P[pr.Name], pr.Nodes)
		rcfg := selection.RobustnessConfig{
			P:           p,
			Sizes:       cfg.sizes,
			Intensities: []float64{0, 0.25, 0.5, 0.75, 1},
			Seed:        1,
			Settings:    cfg.settings,
		}
		rep, err := selection.Robustness(context.Background(), pr, sel, rcfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("robustness_%s_p%d.csv", pr.Name, p)
		if err := emit(cfg, name, rep.Render(), rep.CSV()); err != nil {
			return err
		}
	}
	return nil
}

// runMetrics generates the observability artifact: one calibration per
// cluster with a metrics registry attached. The calibration runs twice
// against a shared in-memory measurement cache, so the artifact shows both
// the cold path (points measured, engine repetitions, simulator totals,
// fit statistics) and the warm path (points served from cache). A small
// guideline-verification pass over the same registry populates the
// guideline_checks_total / guideline_violations_total counters and the
// per-guideline ratio histograms alongside.
func runMetrics(cfg runConfig) error {
	for _, pr := range cfg.profiles {
		p := cfg.estProcs[pr.Name]
		if p == 0 || p > pr.Nodes {
			p = pr.Nodes / 2
		}
		reg := obs.NewRegistry()
		acfg := estimate.AlphaBetaConfig{
			Procs:    p,
			Settings: cfg.settings,
			Cache:    experiment.NewCache(),
			Metrics:  reg,
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := core.Calibrate(pr, acfg); err != nil {
				return err
			}
		}
		gh := guideline.Harness{
			Profiles:   []cluster.Profile{pr},
			Guidelines: guideline.Invariant(),
			Procs:      []int{4},
			Sizes:      []int{8 << 10},
			Settings:   experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1, Engine: cfg.settings.Engine},
			Metrics:    reg,
		}
		if _, err := gh.Run(context.Background()); err != nil {
			return err
		}
		var table, snapshot strings.Builder
		fmt.Fprintf(&table, "observability metrics: calibration of %s (P=%d, two passes over a shared cache) plus a guideline check\n\n", pr.Name, p)
		if err := reg.WriteTable(&table); err != nil {
			return err
		}
		if err := reg.WriteJSON(&snapshot); err != nil {
			return err
		}
		if err := emit(cfg, fmt.Sprintf("metrics_%s.json", pr.Name), table.String(), snapshot.String()); err != nil {
			return err
		}
	}
	return nil
}

func runTable1(cfg runConfig) error {
	tab, err := tables.GenerateTable1(cfg.profiles, cfg.settings)
	if err != nil {
		return err
	}
	return emit(cfg, "table1.csv", tab.Render(), tab.CSV())
}

// runFig5Table3 estimates the models once per cluster (printing Table 2 on
// the way) and then generates the requested selection artifacts, if any.
func runFig5Table3(cfg runConfig, fig5, table3 bool) error {
	tab2, err := tables.GenerateTable2(cfg.profiles, cfg.estProcs, cfg.settings)
	if err != nil {
		return err
	}
	if err := emit(cfg, "table2.csv", tab2.Render(), tab2.CSV()); err != nil {
		return err
	}
	for _, pr := range cfg.profiles {
		sel := selection.ModelBased{Models: tab2.Models[pr.Name]}
		if fig5 {
			for _, p := range cfg.fig5Ps[pr.Name] {
				if p > pr.Nodes {
					continue
				}
				panel, err := tables.GenerateFig5Panel(pr, sel, p, cfg.sizes, cfg.settings)
				if err != nil {
					return err
				}
				name := fmt.Sprintf("fig5_%s_p%d.csv", pr.Name, p)
				if err := emit(cfg, name, panel.Render(), panel.CSV()); err != nil {
					return err
				}
				fmt.Fprintln(cfg.out, panel.PlotFig5(64, 16))
			}
		}
		if table3 {
			p := min(cfg.table3P[pr.Name], pr.Nodes)
			tab3, err := tables.GenerateTable3(pr, sel, p, cfg.sizes, cfg.settings)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("table3_%s_p%d.csv", pr.Name, p)
			if err := emit(cfg, name, tab3.Render(), tab3.CSV()); err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "worst model-based degradation: %.1f%%\n\n", tab3.MaxModelDegradation())
		}
	}
	return nil
}
