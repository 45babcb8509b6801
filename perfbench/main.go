// Command perfbench is mpicollperf's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks every output it produces, and
// prints the workload's metrics; run.sh builds it and the daemon first.
//
//	perfbench -workload calib_bcast|calib_ext|daemon_mixed -seed N \
//	          -seconds S -trace 0|1 -daemon PATH -workdir DIR
//
// With -trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with -trace 1 it holds the per-layer
// metrics of a separate traced run. The lines before it describe the
// host, the run and every metric in readable form. The exit code is 1
// when any output check failed. See README.md for the workloads, the
// metrics and the layer map.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // mpicollperfd binary (daemon_mixed only)
	workdir  string // scratch space for stores and logs
	root     string // checkout root, hashed into the provenance record
	hooks    hooks
}

// hooks are the benchmark's own test seams. The zero value is a normal
// run.
type hooks struct {
	// delay adds a fixed sleep inside the benchmark's wrapper around
	// every call into the named layer (a span name such as
	// "estimate.ext_reduce"), in traced and untraced runs alike.
	delay map[string]time.Duration
	// corrupt makes every output check compare against a deliberately
	// wrong expectation.
	corrupt bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload returns: its end-to-end and per-layer
// metrics plus the outcome of its output checks.
type report struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	errs      []string
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// op records one attempted operation; a non-nil err (a failed call or a
// failed output check) counts it as failed.
func (r *report) op(err error) {
	failed := 0
	if err != nil {
		failed = 1
	}
	r.count(1, failed, err)
}

// count records n attempted operations of which failed failed; first
// describes one of the failures.
func (r *report) count(n, failed int, first error) {
	r.attempted += n
	r.failed += failed
	if first != nil && len(r.errs) < 10 {
		r.errs = append(r.errs, first.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*report, error){
	"calib_bcast":  runCalibBcast,
	"calib_ext":    runCalibExt,
	"daemon_mixed": runDaemonMixed,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := workloads[cfg.workload](context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "calib_bcast, calib_ext or daemon_mixed")
	fs.Int64Var(&cfg.seed, "seed", 0, "workload seed (0 keeps the profiles' own noise seeds)")
	fs.IntVar(&cfg.seconds, "seconds", 20, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "mpicollperfd binary (daemon_mixed)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory")
	fs.StringVar(&cfg.root, "root", ".", "checkout root (provenance)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be >= 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.workload == "daemon_mixed" && cfg.daemon == "" {
		return cfg, fmt.Errorf("daemon_mixed needs -daemon")
	}
	return cfg, nil
}

// emit prints the provenance record, a readable metric table, and the
// result object as the final line.
func emit(w io.Writer, cfg config, rep *report) error {
	meta := hostMeta(cfg)
	line, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# host %s\n", line)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(w, "# check failed: %s\n", e)
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d, failed_ratio %g\n", rep.attempted, rep.failed, ratio(rep.failed, rep.attempted))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hostMeta is the provenance recorded with every result: absolute
// numbers only compare on the same host and source.
func hostMeta(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(cfg.root),
		"source_sha256": sourceDigest(cfg.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision of the git work tree rooted at root, or
// "unknown" when root is not the top of one (source_sha256 identifies
// the source either way).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	top, rev, ok := strings.Cut(strings.TrimSpace(string(out)), "\n")
	abs, err := filepath.Abs(root)
	if !ok || err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	if filepath.Clean(top) != abs {
		return "unknown"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping build outputs and hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssMeter samples a process's peak resident set size per timed
// iteration: the kernel's watermark (VmHWM) is reset before each
// iteration (Linux clear_refs) and read after it.
type rssMeter struct {
	pid     string // a PID, or "self"
	samples []float64
}

// reset restarts the watermark. For this process it first returns freed
// heap to the OS, so each iteration's peak starts from the live heap.
func (m *rssMeter) reset() {
	if m.pid == "self" {
		debug.FreeOSMemory()
	}
	_ = os.WriteFile("/proc/"+m.pid+"/clear_refs", []byte("5"), 0) // best effort: unreset, the watermark covers earlier work too
}

// read records the watermark since the last reset, in MB.
func (m *rssMeter) read() error {
	data, err := os.ReadFile("/proc/" + m.pid + "/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return err
			}
			m.samples = append(m.samples, kb/1024)
			return nil
		}
	}
	return errors.New("no VmHWM in /proc/" + m.pid + "/status")
}

// memDelta measures Go heap allocation and GC cycles across a region.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

// perIter returns MB allocated and GC cycles per iteration since start.
func (m *memDelta) perIter(iters int) (allocMB, gcs float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	n := float64(max(iters, 1))
	return float64(end.TotalAlloc-m.start.TotalAlloc) / (1 << 20) / n, float64(end.NumGC-m.start.NumGC) / n
}

// timedLoop runs iter until seconds have passed (at least minIters
// times) and returns each iteration's wall time in seconds. rss samples
// each iteration's peak RSS; between, if non-nil, runs untimed after
// every iteration.
func timedLoop(seconds, minIters int, rss *rssMeter, iter func() error, between func()) ([]float64, error) {
	var samples []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(samples) < minIters || time.Now().Before(deadline) {
		rss.reset()
		t := time.Now()
		if err := iter(); err != nil {
			return samples, err
		}
		samples = append(samples, time.Since(t).Seconds())
		if err := rss.read(); err != nil {
			return samples, err
		}
		if between != nil {
			between()
		}
	}
	return samples, nil
}
