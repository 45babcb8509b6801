package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/stats"
)

// sweepSizes validates the size-sweep flags and returns the log-spaced
// grid. points must be at least 2: stats.LogSpace is defined for n >= 2,
// and a 1-point "sweep" would silently measure only min and drop max.
func sweepSizes(minM, maxM, points int) ([]int, error) {
	if minM <= 0 || maxM < minM {
		return nil, fmt.Errorf("invalid size sweep: min=%d max=%d", minM, maxM)
	}
	if points < 2 {
		return nil, fmt.Errorf("invalid size sweep: points=%d (need >= 2 to cover both min and max)", points)
	}
	return stats.LogSpaceBytes(minM, maxM, points), nil
}

// runScaling times the same grid at each worker count and prints the
// speedup curve relative to the first count. One RunnerPool sized to the
// largest count is shared across all runs and warmed by an untimed
// sweep, so the curve isolates sweep concurrency from simulator
// construction. Sweep.Run clamps the effective worker count to
// GOMAXPROCS, so counts beyond the core count report that plateau
// rather than oversubscription overhead.
func runScaling(out io.Writer, pr cluster.Profile, set experiment.Settings, grid []experiment.Point, counts []int, metrics *obs.Registry) error {
	maxWorkers := slices.Max(counts)
	pool, err := experiment.NewRunnerPool(pr, maxWorkers, metrics)
	if err != nil {
		return err
	}
	warm := experiment.Sweep{Profile: pr, Settings: set, Workers: maxWorkers, Pool: pool, Metrics: metrics}
	if _, err := warm.Run(context.Background(), grid); err != nil {
		return err
	}
	secs := make([]float64, len(counts))
	for i, c := range counts {
		sw := experiment.Sweep{Profile: pr, Settings: set, Workers: c, Pool: pool, Metrics: metrics}
		start := time.Now()
		if _, err := sw.Run(context.Background(), grid); err != nil {
			return err
		}
		secs[i] = time.Since(start).Seconds()
	}
	fmt.Fprintf(out, "sweep scaling on %s, %d points, GOMAXPROCS=%d\n", pr.Name, len(grid), runtime.GOMAXPROCS(0))
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "workers\tseconds\tspeedup vs workers=%d\n", counts[0])
	for i, c := range counts {
		fmt.Fprintf(w, "%d\t%.3f\t%.2fx\n", c, secs[i], secs[0]/secs[i])
	}
	return w.Flush()
}

// runSweep is `mpicollperf sweep`: it measures broadcast algorithms over
// log-spaced message sizes and prints the execution times, the raw
// experimental curves behind the paper's figures. The (size × algorithm)
// grid fans out over -workers with one fresh simulator per point, so the
// table is byte-identical at every worker count.
func runSweep(args []string, stdout, stderr io.Writer) (err error) {
	fs, c := commandFlags("sweep", stderr, "grisou", withWorkers|withEngine|withCache|withMetrics|withProfiles)
	np := fs.Int("np", 0, "number of processes (default: whole cluster)")
	algsFlag := fs.String("algs", "", "comma-separated algorithms (default: all six)")
	minM := fs.Int("min", 8192, "smallest message size in bytes")
	maxM := fs.Int("max", 4<<20, "largest message size in bytes")
	points := fs.Int("points", 10, "number of log-spaced sizes (>= 2)")
	seg := fs.Int("seg", 0, "segment size (default: the platform's 8 KB)")
	scalingFlag := fs.String("scaling", "", "comma-separated worker counts: time the sweep at each and print the scaling curve instead of the measurement table")
	perturbFlag := fs.String("perturb", "", "perturbation spec to compose onto the cluster (e.g. \"straggler:node=0,cpu=2;jitter:pareto,alpha=2\")")
	perturbRandom := fs.Float64("perturb-random", 0, "generate a random perturbation of this intensity in (0, 1]")
	perturbSeed := fs.Int64("perturb-seed", 1, "seed for -perturb-random")
	verbose := fs.Bool("v", false, "report replay-engine fallback counts after the sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -v reads the plan-template counters back out of the registry, so it
	// needs one even without a -metrics artifact.
	e, stop, err := c.setup(*verbose)
	if err != nil {
		return err
	}
	defer stop(&err)

	pr := e.profile
	if *np == 0 {
		*np = pr.Nodes
	}
	if *np < 2 {
		return fmt.Errorf("np %d, need >= 2", *np)
	}
	if *np > pr.Nodes {
		// Production-sized grids: enlarge the platform synthetically,
		// keeping the calibrated link parameters (cluster.Profile.Scaled).
		if pr, err = pr.Scaled(*np); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "np %d exceeds the physical cluster; sweeping the scaled platform %s\n", *np, pr.Name)
	}
	if *seg == 0 {
		*seg = pr.SegmentSize
	}
	if *perturbFlag != "" && *perturbRandom != 0 {
		return fmt.Errorf("-perturb and -perturb-random are mutually exclusive")
	}
	if *perturbFlag != "" {
		spec, err := perturb.Parse(*perturbFlag)
		if err != nil {
			return err
		}
		if err := spec.Validate(pr.Net.NICs()); err != nil {
			return err
		}
		pr = pr.Perturbed(spec)
	} else if *perturbRandom != 0 {
		if *perturbRandom < 0 || *perturbRandom > 1 {
			return fmt.Errorf("-perturb-random %g outside (0, 1]", *perturbRandom)
		}
		pr = pr.Perturbed(perturb.Random(*perturbSeed, *perturbRandom, pr.Net.NICs()))
	}
	sizes, err := sweepSizes(*minM, *maxM, *points)
	if err != nil {
		return err
	}

	algs := coll.BcastAlgorithms()
	if *algsFlag != "" {
		algs = nil
		for _, name := range strings.Split(*algsFlag, ",") {
			alg, err := coll.ParseBcastAlgorithm(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			algs = append(algs, alg)
		}
	}

	sw := experiment.Sweep{
		Profile:  pr,
		Settings: e.settings,
		Workers:  c.workers,
		Cache:    e.cache,
		Metrics:  e.metrics,
		Progress: progressLine(stderr),
	}

	grid := experiment.BcastGrid(*np, algs, sizes, *seg)
	if *scalingFlag != "" {
		if sw.Cache != nil {
			return fmt.Errorf("-scaling and -cache are mutually exclusive: cached points would make every count after the first trivially fast")
		}
		counts, err := parseIntList(*scalingFlag)
		if err != nil {
			return fmt.Errorf("-scaling: %w", err)
		}
		if err := runScaling(stdout, pr, e.settings, grid, counts, sw.Metrics); err != nil {
			return err
		}
		return c.writeMetrics(sw.Metrics)
	}
	results, err := sw.Run(context.Background(), grid)
	if err != nil {
		return err
	}
	if err := c.writeMetrics(sw.Metrics); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "broadcast sweep on %s, P=%d, segment=%d B\n", pr.Name, *np, *seg)
	if *verbose {
		// The plan-template work split, the class-aware scheduler's shape
		// and the replay-engine fallbacks by reason.
		// Singleton classes are captured too, just never kept as templates.
		captured := sw.Metrics.Counter("experiment_plan_templates_total").Value() +
			sw.Metrics.Counter("experiment_plan_singletons_total").Value()
		rebound := sw.Metrics.Counter("experiment_plan_rebinds_total").Value()
		diverged := sw.Metrics.Counter(obs.Name("experiment_fallbacks_total", "reason", "rebind-divergence")).Value()
		fmt.Fprintf(stdout, "plan templates: %d captured, %d points rebound, %d rebind divergences\n", captured, rebound, diverged)
		classes := int64(sw.Metrics.Gauge("experiment_sweep_class_groups").Value())
		dedup := sw.Metrics.Counter("experiment_sweep_capture_dedup_total").Value()
		wait := sw.Metrics.Histogram("experiment_sweep_singleflight_wait_seconds")
		line := fmt.Sprintf("class scheduling: %d class groups, %d duplicate captures avoided", classes, dedup)
		if n := wait.Count(); n > 0 {
			line += fmt.Sprintf(", %d single-flight waits (mean %.1f ms)", n, wait.Mean()*1e3)
		}
		fmt.Fprintln(stdout, line)
		var fallbacks []string
		for reason, n := range experiment.CountFallbacks(results) {
			fallbacks = append(fallbacks, fmt.Sprintf("%s×%d", reason, n))
		}
		if len(fallbacks) == 0 {
			fallbacks = []string{"none"}
		}
		slices.Sort(fallbacks)
		fmt.Fprintf(stdout, "engine fallbacks: %s\n", strings.Join(fallbacks, ", "))
	}
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "m (bytes)")
	for _, alg := range algs {
		fmt.Fprintf(w, "\t%v (s)", alg)
	}
	fmt.Fprintln(w)
	// BcastGrid is sizes-major: results[i*len(algs)+j] is (sizes[i], algs[j]).
	for i, m := range sizes {
		fmt.Fprintf(w, "%d", m)
		for j := range algs {
			fmt.Fprintf(w, "\t%.6f", results[i*len(algs)+j].Meas.Mean)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
