package main

import (
	"math"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans nest: a span's self time is its duration minus the
// durations of the spans opened directly inside it. Nothing inside the
// program is instrumented; the spans sit in the benchmark's own code.
//
// A disabled tracer records nothing but still applies the configured
// delays, so a delay injected into one layer's wrapper reaches the
// untraced end-to-end timings as well.
type tracer struct {
	enabled bool
	delay   map[string]time.Duration
	open    []*span
	totals  map[string]*spanTotal
}

type span struct {
	t        *tracer
	name     string
	start    time.Time
	children time.Duration
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	count int
	total time.Duration
	self  time.Duration
}

func newTracer(enabled bool, delay map[string]time.Duration) *tracer {
	return &tracer{enabled: enabled, delay: delay, totals: map[string]*spanTotal{}}
}

// start opens a span named name. The caller closes it with end, which
// may rename it once the call has shown what kind of work it was.
func (t *tracer) start(name string) *span {
	sp := &span{t: t, name: name, start: time.Now()}
	if t.enabled {
		t.open = append(t.open, sp)
	}
	if d := t.delay[name]; d > 0 {
		time.Sleep(d)
	}
	return sp
}

// end closes the span, optionally under a new name, and returns its
// duration.
func (sp *span) end(rename ...string) time.Duration {
	d := time.Since(sp.start)
	t := sp.t
	if !t.enabled {
		return d
	}
	if len(rename) > 0 {
		sp.name = rename[0]
	}
	t.open = t.open[:len(t.open)-1]
	if n := len(t.open); n > 0 {
		t.open[n-1].children += d
	}
	tot := t.totals[sp.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[sp.name] = tot
	}
	tot.count++
	tot.total += d
	tot.self += d - sp.children
	return d
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	sp := t.start(name)
	err := fn()
	sp.end()
	return err
}

// total returns the summed duration of every span named name, in
// seconds (0 when none ran).
func (t *tracer) total(name string) float64 {
	if tot := t.totals[name]; tot != nil {
		return tot.total.Seconds()
	}
	return 0
}

// self returns the summed self time of every span named name, in
// seconds.
func (t *tracer) self(name string) float64 {
	if tot := t.totals[name]; tot != nil {
		return tot.self.Seconds()
	}
	return 0
}

// selfSum returns the self time of every recorded span, in seconds: the
// traced run's wall time split into layers, counted once each.
func (t *tracer) selfSum() float64 {
	var s time.Duration
	for _, tot := range t.totals {
		s += tot.self
	}
	return s.Seconds()
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
