package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/decision"
	"mpicollperf/internal/selection"
)

// runCalibrate is `mpicollperf calibrate`: the paper's offline calibration
// (§4), γ(P) estimation followed by per-algorithm α/β estimation as one
// parallel sweep, optionally saved for select, decision or a library
// consumer.
func runCalibrate(args []string, stdout, stderr io.Writer) (err error) {
	fs, c := commandFlags("calibrate", stderr, "grisou", withWorkers|withEngine|withCache|withMetrics|withProfiles)
	procs := fs.Int("procs", 0, "processes for the α/β experiments (default: half the cluster)")
	save := fs.String("save", "", "write the calibration to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, stop, err := c.setup(false)
	if err != nil {
		return err
	}
	defer stop(&err)
	sel, err := c.calibrate(e, *procs, progressLine(stderr))
	if err != nil {
		return err
	}

	pr := sel.Profile
	fmt.Fprintf(stdout, "calibration of %s (segment size %d B)\n\n", pr.Name, pr.SegmentSize)
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "P\tgamma(P)\treps\tCI rel err")
	for p := 2; p <= pr.MaxLinearFanout; p++ {
		meas := sel.GammaDetail.Measurements[p]
		fmt.Fprintf(w, "%d\t%.3f\t%d\t%.4f\n",
			p, sel.Models.Gamma.At(p), meas.Reps, meas.CI.RelativeError())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "algorithm\talpha (s)\tbeta (s/B)")
	for _, alg := range coll.BcastAlgorithms() {
		par := sel.Models.Params[alg]
		fmt.Fprintf(w, "%v\t%.3e\t%.3e\n", alg, par.Alpha, par.Beta)
	}
	w.Flush()

	if *save != "" {
		if err := sel.SaveModels(*save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ncalibration written to %s\n", *save)
	}
	return nil
}

// loadOrCalibrate returns the -cluster calibration saved at calPath, or
// runs one now when calPath is empty.
func loadOrCalibrate(c *commonFlags, calPath string, stderr io.Writer) (sel *core.Selector, err error) {
	if calPath != "" {
		pr, err := cluster.ByName(c.cluster)
		if err != nil {
			return nil, err
		}
		return core.LoadModels(pr, calPath)
	}
	e, stop, err := c.setup(false)
	if err != nil {
		return nil, err
	}
	defer stop(&err)
	fmt.Fprintln(stderr, "(no -cal file: running calibration, this takes a moment)")
	return c.calibrate(e, 0, nil)
}

// runSelect is `mpicollperf select`, the paper's run-time question: which
// broadcast algorithm should MPI_Bcast use for a given process count and
// message size? It prints the model-based selection, Open MPI 3.1's fixed
// decision and the per-algorithm model predictions.
func runSelect(args []string, stdout, stderr io.Writer) error {
	fs, c := commandFlags("select", stderr, "grisou", 0)
	calPath := fs.String("cal", "", "calibration JSON from calibrate (default: calibrate now)")
	np := fs.Int("np", 0, "number of processes (required)")
	m := fs.Int("m", 0, "message size in bytes (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *np < 2 || *m < 0 {
		return fmt.Errorf("need -np >= 2 and -m >= 0")
	}
	sel, err := loadOrCalibrate(c, *calPath, stderr)
	if err != nil {
		return err
	}

	choice, err := sel.Best(*np, *m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cluster=%s P=%d m=%d B\n", sel.Profile.Name, *np, *m)
	fmt.Fprintf(stdout, "model-based selection: %v\n", choice)
	fmt.Fprintf(stdout, "open mpi 3.1 decision: %v\n\n", selection.OpenMPIFixed(*np, *m))

	preds := sel.PredictAll(*np, *m)
	algs := make([]coll.BcastAlgorithm, 0, len(preds))
	for a := range preds {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return preds[algs[i]] < preds[algs[j]] })
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "rank\talgorithm\tpredicted time (s)")
	for i, a := range algs {
		fmt.Fprintf(w, "%d\t%v\t%.6f\n", i+1, a, preds[a])
	}
	return w.Flush()
}

// runDecision is `mpicollperf decision`: it compiles a calibration into a
// static decision table, the artifact an MPI library would ship (Open MPI's
// coll_tuned_decision_fixed.c regenerated from models instead of hand
// tuning). Without -cal the calibration runs here; pointing -cache at the
// directory a previous `calibrate -cache` run filled makes it a pure cache
// replay with no measurement at all.
func runDecision(args []string, stdout, stderr io.Writer) error {
	fs, c := commandFlags("decision", stderr, "grisou", withWorkers|withCache)
	calPath := fs.String("cal", "", "calibration JSON from calibrate (default: calibrate now)")
	maxProcs := fs.Int("maxprocs", 0, "largest communicator size (default: the platform)")
	jsonPath := fs.String("json", "", "write the table as JSON to this path")
	goFunc := fs.String("gofunc", "", "emit the table as a Go function with this name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sel, err := loadOrCalibrate(c, *calPath, stderr)
	if err != nil {
		return err
	}
	if *maxProcs == 0 {
		*maxProcs = sel.Profile.Nodes
	}
	tab, err := decision.Compile(sel.Models, decision.CompileConfig{MaxProcs: *maxProcs})
	if err != nil {
		return err
	}

	if *jsonPath != "" {
		if err := tab.Save(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "table written to %s\n", *jsonPath)
	}
	if *goFunc != "" {
		fmt.Fprintln(stdout, tab.GoSource(*goFunc))
	}
	if *jsonPath == "" && *goFunc == "" {
		fmt.Fprintf(stdout, "compiled decision table for %s (segment %d B)\n", tab.Cluster, tab.SegSize)
		for _, row := range tab.Rows {
			fmt.Fprintf(stdout, "  P <= %d:\n", row.Procs)
			for i, rule := range row.Rules {
				if i == len(row.Rules)-1 {
					fmt.Fprintf(stdout, "    otherwise       -> %s\n", rule.Alg)
				} else {
					fmt.Fprintf(stdout, "    m <= %-10d -> %s\n", rule.MaxBytes, rule.Alg)
				}
			}
		}
	}
	return nil
}
