package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/profiling"
)

// sharedFlags is the set of shared flags a subcommand registers besides
// -cluster, which every subcommand but serve takes.
type sharedFlags uint

const (
	withWorkers sharedFlags = 1 << iota
	withEngine
	withCache
	withMetrics
	// withProfiles registers -cpuprofile, -memprofile, -mutexprofile and
	// -blockprofile.
	withProfiles
)

// commonFlags holds the parsed shared flags. Every shared flag is declared
// in commandFlags and nowhere else; an unregistered flag keeps its
// default, so the methods below work for every subcommand.
type commonFlags struct {
	cluster     string
	workers     int
	engine      string
	cacheDir    string
	metricsPath string
	prof        profiling.Config
}

// commandFlags returns a subcommand's flag set, reporting usage to stderr,
// with -cluster (default clusterDefault) and the shared flags in use
// registered.
func commandFlags(name string, stderr io.Writer, clusterDefault string, use sharedFlags) (*flag.FlagSet, *commonFlags) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &commonFlags{engine: "auto"}
	clusterUsage := "cluster profile (grisou, gros)"
	if clusterDefault == "both" {
		clusterUsage = "cluster profile (grisou, gros or both)"
	}
	fs.StringVar(&c.cluster, "cluster", clusterDefault, clusterUsage)
	if use&withWorkers != 0 {
		fs.IntVar(&c.workers, "workers", 0, "concurrent measurements (0 = GOMAXPROCS, 1 = serial; clamped to GOMAXPROCS)")
	}
	if use&withEngine != 0 {
		fs.StringVar(&c.engine, "engine", "auto", "execution engine: auto (replay with scheduler fallback) or scheduler")
	}
	if use&withCache != 0 {
		fs.StringVar(&c.cacheDir, "cache", "", "reuse measurements from this directory (created if missing)")
	}
	if use&withMetrics != 0 {
		fs.StringVar(&c.metricsPath, "metrics", "", "write a JSON metrics artifact of the run to this file")
	}
	if use&withProfiles != 0 {
		fs.StringVar(&c.prof.CPUPath, "cpuprofile", "", "write a CPU profile of the run to this file")
		fs.StringVar(&c.prof.MemPath, "memprofile", "", "write a heap profile to this file at exit")
		fs.StringVar(&c.prof.MutexPath, "mutexprofile", "", "write a mutex-contention profile of the run to this file")
		fs.StringVar(&c.prof.BlockPath, "blockprofile", "", "write a blocking profile of the run to this file")
	}
	return fs, c
}

// clusterProfiles resolves a -cluster value to its platforms: both
// built-in clusters for "both", else the one named.
func clusterProfiles(name string) ([]cluster.Profile, error) {
	if name == "both" {
		return cluster.All(), nil
	}
	pr, err := cluster.ByName(name)
	return []cluster.Profile{pr}, err
}

// env is what the shared flags resolve to for a measuring subcommand.
type env struct {
	profile  cluster.Profile
	settings experiment.Settings
	cache    *experiment.Cache // nil without -cache
	metrics  *obs.Registry     // nil unless -metrics is set or requested
}

// setup turns the parsed shared flags into the -cluster platform, the
// paper's measurement settings on the -engine engine, the -cache store and
// a metrics registry (made for -metrics, or always when needMetrics), and
// starts the -*profile recordings. Defer the returned stop: it writes the
// profiles and folds a write failure into *err.
func (c *commonFlags) setup(needMetrics bool) (e env, stop func(err *error), err error) {
	if e.profile, err = cluster.ByName(c.cluster); err != nil {
		return e, nil, err
	}
	engine, err := experiment.ParseEngine(c.engine)
	if err != nil {
		return e, nil, err
	}
	e.settings = experiment.DefaultSettings()
	e.settings.Engine = engine
	if c.cacheDir != "" {
		if e.cache, err = experiment.NewDiskCache(c.cacheDir); err != nil {
			return e, nil, err
		}
	}
	if c.metricsPath != "" || needMetrics {
		e.metrics = obs.NewRegistry()
	}
	write, err := profiling.StartWith(c.prof)
	if err != nil {
		return e, nil, err
	}
	return e, func(err *error) { *err = errors.Join(*err, write()) }, nil
}

// writeMetrics writes reg to the -metrics path, if one is set.
func (c *commonFlags) writeMetrics(reg *obs.Registry) error {
	if c.metricsPath == "" {
		return nil
	}
	return reg.WriteJSONFile(c.metricsPath)
}

// calibrate runs the §4 calibration on procs processes as the shared flags
// configure it and writes the -metrics artifact once it is done.
func (c *commonFlags) calibrate(e env, procs int, progress experiment.Progress) (*core.Selector, error) {
	sel, err := core.Calibrate(e.profile, estimate.AlphaBetaConfig{
		Procs: procs, Settings: e.settings, Workers: c.workers, Cache: e.cache, Metrics: e.metrics, Progress: progress,
	})
	if err != nil {
		return nil, err
	}
	return sel, c.writeMetrics(e.metrics)
}

// progressLine reports a sweep's progress as one rewritten line on w.
func progressLine(w io.Writer) experiment.Progress {
	return func(done, total int, r experiment.Result) {
		fmt.Fprintf(w, "\rmeasured %d/%d", done, total)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}

// parseIntList parses a comma-separated list of positive integers; the
// empty list is nil.
func parseIntList(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}
