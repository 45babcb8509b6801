package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"mpicollperf/internal/atomicfile"
)

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Bucket is one histogram bucket: the cumulative count of observations
// <= the upper bound (Prometheus `le` semantics). Only finite bounds are
// exported; the histogram's Count is the implicit +Inf bucket.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by metric name — the canonical, deterministic exchange form all
// three exporters render.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. A nil registry yields
// an empty snapshot. Concurrent updates during the snapshot land in
// either the snapshot or the next one; every field is read atomically,
// though a histogram snapshotted mid-Observe may show that one in-flight
// observation in its bucket row but not yet in Count/Sum (or vice
// versa). Quiesced registries — how every exporter in this repository is
// used — snapshot exactly.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters = append(s.Counters, CounterSnapshot{Name: k.(string), Value: v.(*Counter).Value()})
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: k.(string), Value: v.(*Gauge).Value()})
		return true
	})
	r.hists.Range(func(k, v any) bool {
		s.Histograms = append(s.Histograms, v.(*Histogram).snapshot(k.(string)))
		return true
	})
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// snapshot exports one histogram with cumulative bucket counts, trimming
// trailing buckets that hold every observation already (the full default
// bound grid would bury the signal in 19 rows per histogram).
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	hs := HistogramSnapshot{Name: name, Count: h.Count(), Sum: h.Sum()}
	var cum int64
	buckets := make([]Bucket, 0, len(h.bounds))
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		buckets = append(buckets, Bucket{UpperBound: ub, Count: cum})
	}
	// Trim the saturated tail: keep one bucket that already covers Count.
	end := len(buckets)
	for end > 1 && buckets[end-2].Count == hs.Count {
		end--
	}
	hs.Buckets = buckets[:end]
	return hs
}

// WriteJSON writes the registry as an indented JSON artifact — the format
// behind the tools' -metrics flags and the `reproduce metrics` target.
// The document is exactly the Snapshot schema, so it round-trips through
// json.Unmarshal into a Snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteJSONFile writes the JSON artifact to path (0644), crash-safely: a
// reader sees the previous file or the complete new one, never a torn mix.
func (r *Registry) WriteJSONFile(path string) error {
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, b.Bytes(), 0o644)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): `# TYPE` headers, counters and gauges as bare
// samples, histograms as the conventional _bucket/_sum/_count triplet
// with an explicit +Inf bucket. Labelled metric names (built with Name)
// pass through verbatim, which is what makes them scrapeable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	lastType := ""
	header := func(name, typ string) {
		base := metricBase(name)
		key := base + " " + typ
		if key != lastType {
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
			lastType = key
		}
	}
	for _, c := range s.Counters {
		header(c.Name, "counter")
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		header(g.Name, "gauge")
		fmt.Fprintf(&b, "%s %s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		header(h.Name, "histogram")
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s %d\n", labelledName(h.Name, "_bucket", "le", formatFloat(bk.UpperBound)), bk.Count)
		}
		fmt.Fprintf(&b, "%s %d\n", labelledName(h.Name, "_bucket", "le", "+Inf"), h.Count)
		fmt.Fprintf(&b, "%s %s\n", suffixName(h.Name, "_sum"), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s %d\n", suffixName(h.Name, "_count"), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTable writes a human-readable summary: one row per metric, with
// histograms condensed to count/mean/sum.
func (r *Registry) WriteTable(w io.Writer) error {
	s := r.Snapshot()
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\ttype\tvalue")
	for _, c := range s.Counters {
		fmt.Fprintf(tw, "%s\tcounter\t%d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(tw, "%s\tgauge\t%s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(tw, "%s\thistogram\tcount=%d mean=%s sum=%s\n",
			h.Name, h.Count, formatFloat(mean), formatFloat(h.Sum))
	}
	return tw.Flush()
}

// metricBase strips a label block: metricBase(`x{a="b"}`) == "x".
func metricBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelledName appends suffix to the base name and merges one more label
// into the (possibly empty) label block:
// labelledName(`x{a="b"}`, "_bucket", "le", "0.1") == `x_bucket{a="b",le="0.1"}`.
func labelledName(name, suffix, key, value string) string {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		labels = name[i+1:len(name)-1] + ","
	}
	return fmt.Sprintf("%s%s{%s%s=%q}", base, suffix, labels, key, value)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
