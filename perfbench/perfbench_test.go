package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// smallExt is calib_ext at test scale: two families, eight ranks, three
// sizes.
var smallExt = extConfig{procs: 8, sizes: []int{8192, 65536, 524288}, families: []string{"reduce", "gather"}}

func runSmallExt(t *testing.T, h hooks) *report {
	t.Helper()
	rep, err := calibExt(context.Background(), config{workload: "calib_ext", seed: 7, seconds: 1, trace: true, hooks: h}, smallExt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLayerDelayMovesItsLayerOnly injects a fixed delay into the
// benchmark's wrapper around one layer call (the reduce family's
// extended calibration) and checks that it moves that layer's metric and
// the end-to-end calibration time by the delay, and leaves the other
// layers as they were.
func TestLayerDelayMovesItsLayerOnly(t *testing.T) {
	const delay = 300 * time.Millisecond
	base := runSmallExt(t, hooks{})
	slow := runSmallExt(t, hooks{delay: map[string]time.Duration{"estimate.ext_reduce": delay}})
	if base.failed != 0 || slow.failed != 0 {
		t.Fatalf("checks failed: %d and %d (%v %v)", base.failed, slow.failed, base.errs, slow.errs)
	}
	d := delay.Seconds()
	moved := func(what string, got, want float64) {
		if got < 0.8*want || got > 1.5*want {
			t.Errorf("%s moved by %.3fs, want about %.3fs", what, got, want)
		}
	}
	moved("estimate.ext_reduce_s", slow.layer["estimate.ext_reduce_s"].Value-base.layer["estimate.ext_reduce_s"].Value, d)
	moved("calib_s", slow.e2e["calib_s"].Value-base.e2e["calib_s"].Value, d)
	for _, name := range []string{"estimate.ext_gather_s", "experiment.measure_s", "stats.huber_s"} {
		if diff := math.Abs(slow.layer[name].Value - base.layer[name].Value); diff > d/3 {
			t.Errorf("%s moved by %.3fs under a delay in another layer", name, diff)
		}
	}
	for _, name := range []string{"experiment.points", "mpi.runs", "mpi.transfers", "mpi.reps_replay", "stats.huber_iterations"} {
		if slow.layer[name] != base.layer[name] {
			t.Errorf("count %s changed: %v -> %v", name, base.layer[name], slow.layer[name])
		}
	}
}

// TestForcedCheckFailure makes every output check compare against a
// wrong expectation: the failures must show in failed and in the result
// line.
func TestForcedCheckFailure(t *testing.T) {
	rep := runSmallExt(t, hooks{corrupt: true})
	if rep.failed == 0 || ratio(rep.failed, rep.attempted) <= 0 {
		t.Fatalf("forced check failure not counted: attempted %d, failed %d", rep.attempted, rep.failed)
	}
	var out bytes.Buffer
	if err := emit(&out, config{workload: "calib_ext"}, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != rep.failed {
		t.Fatalf("result line %s does not report the failures", lines[len(lines)-1])
	}
}

// TestTracerSelfTime checks the span arithmetic: a parent's self time
// excludes its children.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true, map[string]time.Duration{"child": 20 * time.Millisecond})
	parent := tr.start("parent")
	time.Sleep(10 * time.Millisecond)
	tr.do("child", func() error { return nil })
	parent.end()
	if c := tr.self("child"); c < 0.02 {
		t.Errorf("child self %.4fs, want >= 0.02s", c)
	}
	if p := tr.self("parent"); p < 0.01 || p >= 0.02 {
		t.Errorf("parent self %.4fs, want in [0.01s, 0.02s)", p)
	}
	if got, want := tr.selfSum(), tr.total("parent"); math.Abs(got-want) > 1e-9 {
		t.Errorf("self times sum to %.6fs, parent total %.6fs", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("p25 %v", q)
	}
}
