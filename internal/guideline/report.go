package guideline

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"mpicollperf/internal/atomicfile"
)

// CheckResult is the verdict of one guideline at one configuration — the
// row format of the JSON artifact and the rendered violation table.
type CheckResult struct {
	Guideline string  `json:"guideline"`
	Family    Family  `json:"family"`
	Platform  string  `json:"platform"`
	Quiet     bool    `json:"quiet"`
	Procs     int     `json:"procs"`
	MsgBytes  int     `json:"msg_bytes"`
	Left      string  `json:"left"`
	Right     string  `json:"right"`
	LeftSec   float64 `json:"left_seconds"`
	RightSec  float64 `json:"right_seconds"`
	Ratio     float64 `json:"ratio"`
	Tolerance float64 `json:"tolerance"`
	Violated  bool    `json:"violated"`
	Engine    string  `json:"engine"`
	Fallback  string  `json:"fallback,omitempty"`
}

// Report aggregates a harness run: every check in deterministic grid
// order plus run-level context.
type Report struct {
	Engine    string
	Workers   int
	Platforms []string
	Elapsed   float64
	Checks    []CheckResult
}

// Violations returns the checks that failed, in grid order.
func (r *Report) Violations() []CheckResult {
	var out []CheckResult
	for _, c := range r.Checks {
		if c.Violated {
			out = append(out, c)
		}
	}
	return out
}

// FamilyCount returns how many distinct guideline families were checked.
func (r *Report) FamilyCount() int {
	seen := make(map[Family]bool)
	for _, c := range r.Checks {
		seen[c.Family] = true
	}
	return len(seen)
}

// Summary is the per-guideline aggregate of the JSON artifact.
type Summary struct {
	Guideline  string  `json:"guideline"`
	Family     Family  `json:"family"`
	Checks     int     `json:"checks"`
	Violations int     `json:"violations"`
	MaxRatio   float64 `json:"max_ratio"`
}

// Summarize folds the checks into one row per guideline, sorted by name.
func (r *Report) Summarize() []Summary {
	byName := make(map[string]*Summary)
	for _, c := range r.Checks {
		s := byName[c.Guideline]
		if s == nil {
			s = &Summary{Guideline: c.Guideline, Family: c.Family, MaxRatio: math.Inf(-1)}
			byName[c.Guideline] = s
		}
		s.Checks++
		if c.Violated {
			s.Violations++
		}
		if c.Ratio > s.MaxRatio {
			s.MaxRatio = c.Ratio
		}
	}
	out := make([]Summary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Guideline < out[j].Guideline })
	return out
}

// artifact is the JSON document WriteJSON emits: run context, the
// per-guideline summary, and the full violation rows (clean checks are
// summarized, not enumerated, to keep artifacts reviewable).
type artifact struct {
	Engine     string        `json:"engine"`
	Workers    int           `json:"workers"`
	Platforms  []string      `json:"platforms"`
	Elapsed    float64       `json:"elapsed_seconds"`
	Checks     int           `json:"checks"`
	ViolCount  int           `json:"violations"`
	Summary    []Summary     `json:"summary"`
	Violations []CheckResult `json:"violation_rows"`
}

// WriteJSON writes the structured artifact to path crash-safely, creating
// parent directories as needed. Non-finite ratios are clamped to -1 (JSON has no
// encoding for infinities).
func (r *Report) WriteJSON(path string) error {
	viol := r.Violations()
	if viol == nil {
		viol = []CheckResult{}
	}
	for i := range viol {
		if !isFinite(viol[i].Ratio) {
			viol[i].Ratio = -1
		}
	}
	sum := r.Summarize()
	for i := range sum {
		if !isFinite(sum[i].MaxRatio) {
			sum[i].MaxRatio = -1
		}
	}
	a := artifact{
		Engine:     r.Engine,
		Workers:    r.Workers,
		Platforms:  r.Platforms,
		Elapsed:    r.Elapsed,
		Checks:     len(r.Checks),
		ViolCount:  len(viol),
		Summary:    sum,
		Violations: viol,
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o644)
}

// Render writes the human-readable run summary: one row per guideline,
// then one row per violation with the measured evidence.
func (r *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "guideline verification: %d checks, %d violations, %d platforms, %.1fs\n\n",
		len(r.Checks), len(r.Violations()), len(r.Platforms), r.Elapsed)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GUIDELINE\tFAMILY\tCHECKS\tVIOLATIONS\tMAX RATIO")
	for _, s := range r.Summarize() {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4f\n", s.Guideline, s.Family, s.Checks, s.Violations, s.MaxRatio)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	viol := r.Violations()
	if len(viol) == 0 {
		fmt.Fprintln(w, "\nall guidelines hold")
		return nil
	}
	fmt.Fprintln(w, "\nVIOLATIONS")
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GUIDELINE\tPLATFORM\tP\tBYTES\tLEFT\tRIGHT\tRATIO\tTOL\tENGINE\tFALLBACK")
	for _, c := range viol {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s=%.3e\t%s=%.3e\t%.4f\t%.2f\t%s\t%s\n",
			c.Guideline, c.Platform, c.Procs, c.MsgBytes,
			c.Left, c.LeftSec, c.Right, c.RightSec, c.Ratio, c.Tolerance, c.Engine, c.Fallback)
	}
	return tw.Flush()
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
