package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mpicollperf/internal/core"
)

// query is one run-time selection: which algorithm of family op wins
// for m bytes over P ranks on selector sel.
type query struct {
	sel  int
	op   string
	P, m int
}

// genQueries draws n selection queries from seed: a selector index
// below len(maxP), a family from ops, P uniform in 2..maxP[sel] and m
// log-uniform in 1 KiB..16 MiB.
func genQueries(seed int64, n int, ops []string, maxP []int) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, n)
	for i := range qs {
		s := rng.Intn(len(maxP))
		qs[i] = query{
			sel: s,
			op:  ops[rng.Intn(len(ops))],
			P:   2 + rng.Intn(maxP[s]-1),
			m:   int(math.Round(math.Exp2(10 + 14*rng.Float64()))),
		}
	}
	return qs
}

// answers evaluates every query on sels.
func answers(sels []*core.Selector, qs []query) ([]core.OpChoice, error) {
	out := make([]core.OpChoice, len(qs))
	for i, q := range qs {
		c, err := sels[q.sel].BestFor(q.op, q.P, q.m)
		if err != nil {
			return nil, fmt.Errorf("select %+v: %w", q, err)
		}
		out[i] = c
	}
	return out, nil
}

// selectLoop answers queries round-robin on sels, timing each
// Selector.BestFor call, until stop reports true (checked every 256
// calls). Every answer is compared with want; the latencies are
// returned in microseconds with the number of wrong answers and the
// first of them.
func selectLoop(sels []*core.Selector, qs []query, want []core.OpChoice, stop func() bool) (lat []float64, wrong int, first error) {
	for i := 0; ; i++ {
		if i%256 == 0 && stop() {
			return lat, wrong, first
		}
		q := qs[i%len(qs)]
		t := time.Now()
		c, err := sels[q.sel].BestFor(q.op, q.P, q.m)
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil || c != want[i%len(qs)] {
			wrong++
			if first == nil {
				first = fmt.Errorf("select %+v: got %+v (%v), want %+v", q, c, err, want[i%len(qs)])
			}
		}
	}
}

// burst is the length of the idle selection burst after each timed
// calibration.
const burst = 50 * time.Millisecond

// selectMeter measures in-process selection on a calibration workload:
// one back-to-back burst after each timed calibration, so the samples
// spread over the whole run.
type selectMeter struct {
	sels  []*core.Selector
	qs    []query
	want  []core.OpChoice
	idle  phaseStats
	wrong int
	first error
}

// burst runs one idle selection burst.
func (m *selectMeter) burst() {
	t := time.Now()
	lat, wrong, first := selectLoop(m.sels, m.qs, m.want, func() bool { return time.Since(t) >= burst })
	m.idle.add(lat, time.Since(t).Seconds())
	m.wrong += wrong
	if m.first == nil {
		m.first = first
	}
}

// finish reports select_p50_us and core.best_for_ns.
func (m *selectMeter) finish(rep *report) {
	rep.count(m.idle.n, m.wrong, m.first)
	setSelectMetrics(rep, &m.idle)
	rep.layer["core.best_for_ns"] = metric{median(m.idle.p50) * 1e3, "ns"}
}

// phaseStats collects the latency percentiles of each phase of one kind
// (an idle burst, a busy window); each reported figure is the median
// over the phases, so one disturbed phase does not move it.
type phaseStats struct {
	p50, p90, p99, rate []float64
	n                   int
}

// add records one phase's latencies (microseconds) and, if seconds > 0,
// its throughput.
func (ps *phaseStats) add(lat []float64, seconds float64) {
	if len(lat) == 0 {
		return
	}
	ps.p50 = append(ps.p50, median(lat))
	ps.p90 = append(ps.p90, quantile(lat, 0.9))
	ps.p99 = append(ps.p99, quantile(lat, 0.99))
	if seconds > 0 {
		ps.rate = append(ps.rate, float64(len(lat))/seconds)
	}
	ps.n += len(lat)
}

// setSelectMetrics reports the median selection latency of the idle
// phases as an end-to-end metric and notes their tail and throughput. On
// this benchmark's reference host the tails and the throughput moved by
// up to a third of their median between runs of the same code, too much
// to gate on (see README.md).
func setSelectMetrics(rep *report, idle *phaseStats) {
	rep.e2e["select_p50_us"] = metric{median(idle.p50), "us"}
	noteTail(rep, "select idle", idle)
	rep.note("select idle: %.4g answers/s", median(idle.rate))
}

// noteTail notes the sample counts and the p50/p90/p99 latency of one
// kind of phase, each the median over the phases.
func noteTail(rep *report, what string, ps *phaseStats) {
	rep.note("%s: %d phases, %d samples, p50 %.4gus, p90 %.4gus, p99 %.4gus (medians over phases)",
		what, len(ps.p50), ps.n, median(ps.p50), median(ps.p90), median(ps.p99))
}
