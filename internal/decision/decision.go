package decision

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"mpicollperf/internal/atomicfile"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/model"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/stats"
)

// Rule is one compiled decision interval: for communicator sizes up to
// MaxProcs (exclusive of the next rule's range) and message sizes up to
// MaxBytes, use Alg.
type Rule struct {
	// MaxBytes is the inclusive upper bound of the message-size interval.
	MaxBytes int `json:"max_bytes"`
	// Alg is the selected algorithm.
	Alg string `json:"algorithm"`
}

// Row is the rule list for one communicator-size grid point.
type Row struct {
	// Procs is the communicator-size grid point; a lookup uses the row
	// with the smallest Procs >= P (or the last row).
	Procs int `json:"procs"`
	// Rules are ordered by MaxBytes; the last rule's MaxBytes is ignored
	// (it covers everything larger).
	Rules []Rule `json:"rules"`
}

// Table is a compiled decision function for one platform.
type Table struct {
	Cluster string `json:"cluster"`
	SegSize int    `json:"segment_size"`
	Rows    []Row  `json:"rows"`
}

// CompileConfig controls the grid.
type CompileConfig struct {
	// ProcGrid lists the communicator sizes to compile rows for; empty
	// means {2, 4, 8, ..., up to MaxProcs} plus MaxProcs itself.
	ProcGrid []int
	// MaxProcs bounds the default grid (required if ProcGrid is empty).
	MaxProcs int
	// MinBytes/MaxBytes/Points define the message grid (defaults: 1 B to
	// 16 MB, 49 log-spaced points).
	MinBytes, MaxBytes, Points int
}

func (c CompileConfig) withDefaults() (CompileConfig, error) {
	if len(c.ProcGrid) == 0 {
		if c.MaxProcs < 2 {
			return c, fmt.Errorf("decision: need ProcGrid or MaxProcs >= 2")
		}
		for p := 2; p < c.MaxProcs; p *= 2 {
			c.ProcGrid = append(c.ProcGrid, p)
		}
		c.ProcGrid = append(c.ProcGrid, c.MaxProcs)
	}
	sort.Ints(c.ProcGrid)
	for _, p := range c.ProcGrid {
		if p < 2 {
			return c, fmt.Errorf("decision: grid point %d < 2", p)
		}
	}
	if c.MinBytes <= 0 {
		c.MinBytes = 1
	}
	if c.MaxBytes <= c.MinBytes {
		c.MaxBytes = 16 << 20
	}
	if c.Points < 2 {
		c.Points = 49
	}
	return c, nil
}

// Compile evaluates the model-based selector over the grid and compresses
// the result into a Table.
func Compile(bm model.BcastModels, cfg CompileConfig) (Table, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Table{}, err
	}
	if len(bm.Params) == 0 {
		return Table{}, fmt.Errorf("decision: model set for %q has no parameters", bm.Cluster)
	}
	sel := selection.ModelBased{Models: bm}
	sizes := stats.LogSpaceBytes(cfg.MinBytes, cfg.MaxBytes, cfg.Points)
	tab := Table{Cluster: bm.Cluster, SegSize: bm.SegSize}
	for _, p := range cfg.ProcGrid {
		row := Row{Procs: p}
		var lastAlg string
		for _, m := range sizes {
			choice, err := sel.Select(p, m)
			if err != nil {
				return Table{}, err
			}
			name := choice.Alg.String()
			if name == lastAlg && len(row.Rules) > 0 {
				// Extend the current interval.
				row.Rules[len(row.Rules)-1].MaxBytes = m
				continue
			}
			row.Rules = append(row.Rules, Rule{MaxBytes: m, Alg: name})
			lastAlg = name
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}

// Lookup returns the compiled selection for (P, m): the row with the
// smallest grid Procs >= P (the last row for larger P), then the first
// rule whose MaxBytes >= m (the last rule for larger m). The cost is two
// binary searches.
func (t Table) Lookup(P, m int) (string, error) {
	if len(t.Rows) == 0 {
		return "", fmt.Errorf("decision: empty table")
	}
	ri := sort.Search(len(t.Rows), func(i int) bool { return t.Rows[i].Procs >= P })
	if ri == len(t.Rows) {
		ri = len(t.Rows) - 1
	}
	rules := t.Rows[ri].Rules
	if len(rules) == 0 {
		return "", fmt.Errorf("decision: row %d has no rules", t.Rows[ri].Procs)
	}
	ci := sort.Search(len(rules), func(i int) bool { return rules[i].MaxBytes >= m })
	if ci == len(rules) {
		ci = len(rules) - 1
	}
	return rules[ci].Alg, nil
}

// LookupAlgorithm is Lookup returning the typed algorithm.
func (t Table) LookupAlgorithm(P, m int) (coll.BcastAlgorithm, error) {
	name, err := t.Lookup(P, m)
	if err != nil {
		return 0, err
	}
	return coll.ParseBcastAlgorithm(name)
}

// Save writes the table as JSON, crash-safely: a shipped table is replaced
// whole or not at all.
func (t Table) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, data, 0o644)
}

// Load reads a table written by Save.
func Load(path string) (Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Table{}, err
	}
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return Table{}, fmt.Errorf("decision: parsing %s: %w", path, err)
	}
	if len(t.Rows) == 0 {
		return Table{}, fmt.Errorf("decision: %s has no rows", path)
	}
	return t, nil
}

// GoSource renders the table as a self-contained Go function, the way a
// library maintainer would vendor it (compare Open MPI's
// coll_tuned_decision_fixed.c, which was produced the same way from
// empirical sweeps — the difference is that this table comes from
// calibrated models and can be regenerated per platform).
func (t Table) GoSource(funcName string) string {
	out := fmt.Sprintf("// %s was generated by mpicollperf's decision compiler for\n", funcName)
	out += fmt.Sprintf("// platform %q (segment size %d). Do not edit.\n", t.Cluster, t.SegSize)
	out += fmt.Sprintf("func %s(procs, msgBytes int) string {\n", funcName)
	out += "\tswitch {\n"
	for i, row := range t.Rows {
		cond := fmt.Sprintf("procs <= %d", row.Procs)
		if i == len(t.Rows)-1 {
			cond = "true"
		}
		out += fmt.Sprintf("\tcase %s:\n\t\tswitch {\n", cond)
		for j, rule := range row.Rules {
			if j == len(row.Rules)-1 {
				out += fmt.Sprintf("\t\tdefault:\n\t\t\treturn %q\n", rule.Alg)
			} else {
				out += fmt.Sprintf("\t\tcase msgBytes <= %d:\n\t\t\treturn %q\n", rule.MaxBytes, rule.Alg)
			}
		}
		out += "\t\t}\n"
	}
	out += "\t}\n\tpanic(\"unreachable\")\n}\n"
	return out
}
