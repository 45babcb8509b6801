// Command mpicollperf is the reproduction's command-line tool: it
// calibrates the paper's models on the simulated clusters, selects
// broadcast algorithms with them, compiles decision tables, measures and
// traces broadcasts, regenerates the paper's evaluation artifacts, verifies
// performance guidelines, and drives the mpicollperfd daemon.
//
// Usage:
//
//	mpicollperf calibrate [-cluster grisou] [-procs 40] [-save grisou.json]
//	mpicollperf select [-cluster grisou] [-cal grisou.json] -np 90 -m 1048576
//	mpicollperf decision [-cluster grisou] [-cal grisou.json] [-maxprocs 90] \
//	                     [-json table.json] [-gofunc selectBcastGrisou]
//	mpicollperf analyze [-cluster grisou] [-np 16] [-alg binomial] [-m 1048576] \
//	                    [-seg 8192] [-width 72]
//	mpicollperf sweep [-cluster grisou] [-np 90] [-algs binomial,binary] \
//	                  [-min 8192] [-max 4194304] [-points 10] [-seg 8192] [-v] \
//	                  [-scaling 1,2,4,8] [-perturb SPEC | -perturb-random ε [-perturb-seed N]]
//	mpicollperf reproduce [-cluster both] [-quick] [-csv] [-out DIR] \
//	                      {fig1|table1|table2|fig5|table3|ext|robustness|metrics|all}...
//	mpicollperf verify-guidelines [-cluster both] [-quick] [-procs 4,8] [-sizes 1024,65536] \
//	                              [-perturbations 2] [-perturb SPEC] [-seed 1] [-intensity 0.5] \
//	                              [-out results/guidelines.json]
//	mpicollperf serve {submit|status|wait|list|cancel|select} -server URL [flags]
//
// `mpicollperf <command> -h` lists a command's flags. The flags several
// commands share mean the same everywhere:
//
//	-cluster       the platform: grisou or gros (reproduce and
//	               verify-guidelines also take both, their default)
//	-workers N     concurrent measurements (calibrate, decision, sweep,
//	               verify-guidelines); 0 = GOMAXPROCS, 1 = serial. The
//	               output never depends on it.
//	-engine E      how repetitions execute (calibrate, sweep,
//	               verify-guidelines): auto captures each point's execution
//	               plan and re-times repetitions with the replay engine,
//	               falling back to the full scheduler when the structure is
//	               not plan-stable; scheduler forces the slow path. Both
//	               measure bit-identically.
//	-cache DIR     reuse measurements from DIR (calibrate, decision,
//	               sweep), so a decision run after `calibrate -cache DIR`
//	               replays the calibration from disk with no measurement.
//	-metrics FILE  write a JSON observability artifact of the run
//	               (calibrate, sweep, verify-guidelines): sweep points
//	               measured vs cached, per-engine repetition counts,
//	               fallback tallies, simulator totals and fit statistics in
//	               the internal/obs snapshot schema (EXPERIMENTS.md names
//	               the metrics).
//	-cpuprofile, -memprofile, -mutexprofile, -blockprofile FILE
//	               runtime/pprof profiles of the run for `go tool pprof`
//	               (calibrate, sweep); the heap profile is taken at exit,
//	               mutex and block profiles sample fully for the run.
//
// calibrate runs the paper's offline calibration (§4): γ(P) estimation
// followed by per-algorithm α/β estimation, dispatched as one parallel
// sweep. select answers the run-time question (§5) for one (P, m) with the
// model-based pick, Open MPI 3.1's fixed decision and every algorithm's
// predicted time; without -cal it calibrates first. decision compiles a
// calibration into the static decision table an MPI library would ship,
// as JSON or Go source.
//
// analyze runs one noise-free broadcast with transfer tracing and prints
// the per-port bottlenecks, a send-port timeline and the critical path.
//
// sweep measures broadcast algorithms over log-spaced message sizes — the
// raw curves behind the paper's figures. -np may exceed the physical
// cluster: the platform is then enlarged synthetically
// (cluster.Profile.Scaled) with its calibrated link parameters kept.
// -scaling replaces the table with a worker-scaling curve over one shared
// warm RunnerPool (exclusive with -cache). -perturb composes a
// deterministic fault scenario onto the cluster (package perturb's spec
// syntax, e.g. "straggler:node=0,cpu=2;link:src=0,dst=1,bw=4");
// -perturb-random generates one from an intensity and -perturb-seed. -v
// reports the plan-template work split, the class-aware scheduler's shape
// and the replay-engine fallbacks by reason.
//
// reproduce regenerates the paper's evaluation artifacts. The full-scale
// run uses the paper's parameters: up to 90 (Grisou) / 124 (Gros)
// processes, 10 message sizes from 8 KB to 4 MB, estimation with 40
// (Grisou) / 124 (Gros) processes, 95%/2.5% measurement methodology;
// -quick shrinks it for a smoke run. Beyond the paper, ext selects the
// extended collective families, robustness re-scores the model-based and
// Open MPI selectors against the oracle on deterministically perturbed
// variants of each cluster (package perturb), and metrics runs one
// calibration per cluster twice over a shared cache with a metrics
// registry attached, plus a small guideline check, and prints the
// collected counters, gauges and span histograms (-csv adds the JSON
// snapshot; -out DIR writes it to DIR/metrics_<cluster>.json).
//
// verify-guidelines checks the performance-guideline registry (package
// guideline) over a platform × perturbation × (P, m) grid, writes the JSON
// artifact and exits non-zero on any violation. serve is a client for the
// mpicollperfd daemon's versioned wire API.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// commands maps each subcommand to its entry point; the usage text is
// generated from it.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}{
	{"calibrate", "fit γ(P) and per-algorithm α/β on a simulated cluster (§4)", runCalibrate},
	{"select", "pick the broadcast algorithm for one (P, m) (§5)", runSelect},
	{"decision", "compile a calibration into a static decision table", runDecision},
	{"analyze", "trace one broadcast: bottlenecks, timeline, critical path", runAnalyze},
	{"sweep", "measure broadcast algorithms over message sizes", runSweep},
	{"reproduce", "regenerate the paper's tables and figures", runReproduce},
	{"verify-guidelines", "check the performance-guideline registry", runVerifyGuidelines},
	{"serve", "drive the mpicollperfd daemon", runServe},
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mpicollperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage())
	}
	for _, cmd := range commands {
		if cmd.name == args[0] {
			return cmd.run(args[1:], stdout, stderr)
		}
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stdout, usage())
		return nil
	}
	return fmt.Errorf("unknown command %q\n%s", args[0], usage())
}

// usage lists the subcommands.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: mpicollperf <command> [flags] [args]\n\ncommands:\n")
	for _, cmd := range commands {
		fmt.Fprintf(&b, "  %-18s %s\n", cmd.name, cmd.summary)
	}
	b.WriteString("\nrun 'mpicollperf <command> -h' for a command's flags")
	return b.String()
}
