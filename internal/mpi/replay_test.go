package mpi

import (
	"errors"
	"runtime"
	"testing"

	"mpicollperf/internal/simnet"
)

// replayTestConfig is a noisy cluster for the replay differential tests.
func replayTestConfig(nodes int) simnet.Config {
	cfg := testConfig(nodes)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 4242
	return cfg
}

// replayDualConfig co-locates pairs of processes on shared NICs, so plans
// contain local (port-free, jitter-free) transfers alongside NIC ones.
func replayDualConfig(procs int) simnet.Config {
	cfg := replayTestConfig(procs)
	cfg.ProcsPerNode = 2
	cfg.IntraNodeLatency = 1e-6
	cfg.IntraNodeByteTime = 1e-10
	return cfg
}

// replayPattern is the communication mix the replay tests exercise: a
// segmented pipeline chain (receive segment s, forward it non-blocking),
// per-rank compute time, and a fan-in of differently-sized acks onto rank
// 0 whose arrival order depends on the jitter (unexpected-message
// pressure).
func replayPattern(p *Proc) {
	n, r := p.Size(), p.Rank()
	const segs = 3
	if r == 0 {
		for s := 0; s < segs; s++ {
			p.Send(1, s, nil, 8192)
		}
	} else {
		var fwd []*Request
		for s := 0; s < segs; s++ {
			p.Recv(r-1, s, nil)
			if r+1 < n {
				fwd = append(fwd, p.Isend(r+1, s, nil, 8192))
			}
		}
		if len(fwd) > 0 {
			p.WaitAll(fwd...)
		}
	}
	p.Sleep(float64(r) * 1e-7)
	if r == 0 {
		for d := 1; d < n; d++ {
			p.Recv(d, 99, nil)
		}
	} else {
		p.Send(0, 99, nil, 256+r)
	}
}

// captureOneRep runs one marked repetition of replayPattern on a fresh
// Runner and compiles it into a plan: boundary mark, open barrier, start
// mark, pattern, close barrier, end mark.
func captureOneRep(t testing.TB, cfg simnet.Config, nprocs int) (*Runner, *Plan, Result) {
	t.Helper()
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, cap, err := r.RunCapture(nprocs, func(p *Proc) error {
		root := p.Rank() == 0
		if root {
			p.Mark()
		}
		p.Barrier()
		if root {
			p.Mark()
		}
		replayPattern(p)
		p.Barrier()
		if root {
			p.Mark()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cap.Plan(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Marks() != 2 {
		t.Fatalf("plan has %d marks, want 2", plan.Marks())
	}
	return r, plan, res
}

// TestReplayMatchesScheduler is the engine differential: replaying a
// captured repetition R times must produce per-repetition durations
// bit-identical to a scheduler run executing the same repetition loop
// R+1 times, on both one-process-per-node and co-located clusters.
func TestReplayMatchesScheduler(t *testing.T) {
	const nprocs, extra = 8, 11
	for name, cfg := range map[string]simnet.Config{
		"one_per_node":  replayTestConfig(nprocs),
		"two_per_node":  replayDualConfig(nprocs),
		"noise_free":    testConfig(nprocs),
		"dual_no_noise": func() simnet.Config { c := replayDualConfig(nprocs); c.NoiseAmplitude = 0; return c }(),
	} {
		t.Run(name, func(t *testing.T) {
			// Scheduler reference: one program running the repetition loop.
			var want []float64
			ref, err := NewRunner(cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Run(nprocs, func(p *Proc) error {
				for rep := 0; rep < extra+1; rep++ {
					p.Barrier()
					start := p.Now()
					replayPattern(p)
					p.Barrier()
					if p.Rank() == 0 {
						want = append(want, p.Now()-start)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Capture one repetition, replay the rest.
			r, plan, res := captureOneRep(t, cfg, nprocs)
			rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 4)
			if err != nil {
				t.Fatal(err)
			}
			got := []float64{want[0]} // repetition 0 is the captured one
			for len(got) < extra+1 {
				k := 4
				if rem := extra + 1 - len(got); rem < k {
					k = rem
				}
				marks, ok := rp.Replay(k)
				if !ok {
					t.Fatal("replay did not close over the plan")
				}
				for l := 0; l < k; l++ {
					got = append(got, marks[l*2+1]-marks[l*2])
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("repetition %d: replay %x, scheduler %x", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCaptureIsTimingNeutral asserts that recording a trace — including
// Mark calls — changes nothing about a run's virtual timing.
func TestCaptureIsTimingNeutral(t *testing.T) {
	cfg := replayTestConfig(6)
	plain := func(p *Proc) error {
		p.Barrier()
		replayPattern(p)
		p.Barrier()
		return nil
	}
	marked := func(p *Proc) error {
		if p.Rank() == 0 {
			p.Mark()
		}
		p.Barrier()
		if p.Rank() == 0 {
			p.Mark()
		}
		replayPattern(p)
		p.Barrier()
		if p.Rank() == 2 {
			p.Mark()
		}
		return nil
	}
	r1, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := r1.Run(6, plain)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, cap, err := r2.RunCapture(6, marked)
	if err != nil {
		t.Fatal(err)
	}
	if got.MakeSpan != want.MakeSpan || got.Transfers != want.Transfers {
		t.Fatalf("capture changed timing: %x/%d vs %x/%d", got.MakeSpan, got.Transfers, want.MakeSpan, want.Transfers)
	}
	for i := range want.FinishTimes {
		if got.FinishTimes[i] != want.FinishTimes[i] {
			t.Fatalf("rank %d finish: %x vs %x", i, got.FinishTimes[i], want.FinishTimes[i])
		}
	}
	if cap.MarkCount() != 3 {
		t.Fatalf("recorded %d marks, want 3", cap.MarkCount())
	}
}

// TestReplayZeroAllocsPerRep pins the steady-state replay pass at zero
// heap allocations: every buffer is sized at construction.
func TestReplayZeroAllocsPerRep(t *testing.T) {
	r, plan, res := captureOneRep(t, replayTestConfig(8), 8)
	rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 2)
	if err != nil {
		t.Fatal(err)
	}
	rp.Replay(2) // warm: nothing left to grow
	if avg := testing.AllocsPerRun(20, func() {
		if _, ok := rp.Replay(2); !ok {
			t.Fatal("replay failed")
		}
	}); avg != 0 {
		t.Fatalf("steady-state Replay allocates %v times per batch, want 0", avg)
	}
}

// TestEchoValidatesAndDetectsDivergence: an echo run of the captured
// program against replayed clocks must succeed, and any structural
// deviation — a changed size, an extra operation, a missing one — must be
// reported as an error.
func TestEchoValidatesAndDetectsDivergence(t *testing.T) {
	const nprocs = 6
	r, plan, res := captureOneRep(t, replayTestConfig(nprocs), nprocs)
	rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rp.Replay(1); !ok {
		t.Fatal("replay failed")
	}
	rep := func(mutate func(p *Proc)) func(*Proc) error {
		return func(p *Proc) error {
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			replayPattern(p)
			if mutate != nil {
				mutate(p)
			}
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			return nil
		}
	}
	if err := r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, rep(nil)); err != nil {
		t.Fatalf("faithful echo rejected: %v", err)
	}
	// Echoing the same plan twice must work (cursors reset per call).
	if err := r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, rep(nil)); err != nil {
		t.Fatalf("second faithful echo rejected: %v", err)
	}
	// Divergence is the same typed error a rebind reports, naming the
	// first rank (in rank order) whose stream left the plan.
	for name, tc := range map[string]struct {
		mutate func(p *Proc)
		rank   int
	}{
		"extra_sleep":   {func(p *Proc) { p.Sleep(1e-9) }, 0},
		"extra_message": {sendRecvPair, 0},
		"rank3_only": {func(p *Proc) {
			if p.Rank() == 3 {
				p.Sleep(1e-9)
			}
		}, 3},
	} {
		err := r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, rep(tc.mutate))
		var re *RebindError
		if !errors.As(err, &re) {
			t.Errorf("%s: echo returned %v, want a *RebindError", name, err)
		} else if re.Rank != tc.rank {
			t.Errorf("%s: divergence reported on rank %d, want %d", name, re.Rank, tc.rank)
		}
	}
	// A changed byte count inside the pattern must also be flagged.
	altered := func(p *Proc) error {
		p.Barrier()
		if p.Rank() == 0 {
			p.Mark()
		}
		if p.Rank() == 0 {
			p.Send(1, 99, nil, 1) // wrong size, wrong point in the stream
		} else if p.Rank() == 1 {
			p.Recv(0, 99, nil)
		}
		replayPattern(p)
		p.Barrier()
		if p.Rank() == 0 {
			p.Mark()
		}
		return nil
	}
	if err := r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, altered); err == nil {
		t.Error("reordered echo accepted")
	} else if re := (*RebindError)(nil); !errors.As(err, &re) || re.Rank != 0 {
		t.Errorf("reordered echo: err = %v, want a *RebindError on rank 0", err)
	}
	// After echoing, the Runner must still run normal programs.
	if _, err := r.Run(nprocs, func(p *Proc) error {
		p.Barrier()
		return nil
	}); err != nil {
		t.Fatalf("runner broken after echo runs: %v", err)
	}
}

func sendRecvPair(p *Proc) {
	if p.Rank() == 0 {
		p.Send(1, 123, nil, 64)
	} else if p.Rank() == 1 {
		p.Recv(0, 123, nil)
	}
}

// TestEchoRunGoroutineFree: an echo run walks the ranks one after
// another on the caller's goroutine, so no rank's closure ever sees a
// goroutine the caller did not already have.
func TestEchoRunGoroutineFree(t *testing.T) {
	const nprocs = 6
	r, plan, res := captureOneRep(t, replayTestConfig(nprocs), nprocs)
	rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rp.Replay(1); !ok {
		t.Fatal("replay failed")
	}
	want := runtime.NumGoroutine()
	seen := 0
	err = r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, func(p *Proc) error {
		if got := runtime.NumGoroutine(); got != want {
			t.Errorf("rank %d: %d goroutines inside the echo, caller had %d", p.Rank(), got, want)
		}
		seen++
		p.Barrier()
		if p.Rank() == 0 {
			p.Mark()
		}
		replayPattern(p)
		p.Barrier()
		if p.Rank() == 0 {
			p.Mark()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("faithful echo rejected: %v", err)
	}
	if seen != nprocs {
		t.Errorf("echo ran %d rank closures, want %d", seen, nprocs)
	}
}

// TestEchoRunValidation covers the argument checks of EchoRun.
func TestEchoRunValidation(t *testing.T) {
	r, plan, res := captureOneRep(t, replayTestConfig(4), 4)
	rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Replay(1)
	if err := r.EchoRun(plan, rp.EchoClocks()[:1], res.FinishTimes, nil); err == nil {
		t.Error("short clock slice accepted")
	}
	if err := r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes[:2], nil); err == nil {
		t.Error("short start slice accepted")
	}
}

// TestPlanRejectsOpenSegments: a plan whose communication reaches across
// its mark boundaries cannot be replayed in isolation and must be refused.
func TestPlanRejectsOpenSegments(t *testing.T) {
	r, err := NewRunner(replayTestConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A request posted before the mark but waited on after it.
	_, cap, err := r.RunCapture(2, func(p *Proc) error {
		if p.Rank() == 0 {
			req := p.Isend(1, 0, nil, 4096)
			p.Mark()
			p.Wait(req)
		} else {
			p.Recv(0, 0, nil)
		}
		p.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, perr := cap.Plan(0, -1); perr == nil {
		t.Error("plan with a request posted outside the segment accepted")
	}
	// Mark-range validation.
	if _, perr := cap.Plan(-1, -1); perr == nil {
		t.Error("negative fromMark accepted")
	}
	if _, perr := cap.Plan(0, 0); perr == nil {
		t.Error("empty mark range accepted")
	}
	if _, perr := cap.Plan(5, -1); perr == nil {
		t.Error("out-of-range fromMark accepted")
	}
}

// BenchmarkReplayRep measures one replayed repetition of the 16-rank
// pipeline/fan-in pattern — the unit of work the measurement harness pays
// per repetition on the replay engine (compare BenchmarkSchedulerPingPong
// territory: the same structure under the scheduler costs a full run).
func BenchmarkReplayRep(b *testing.B) {
	b.ReportAllocs()
	r, plan, res := captureOneRep(b, replayTestConfig(16), 16)
	rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rp.Replay(1); !ok {
			b.Fatal("replay failed")
		}
	}
}

// BenchmarkReplayBatch8 is BenchmarkReplayRep with full 8-lane batches:
// the jitter pre-draw and port stripes amortise across the batch.
func BenchmarkReplayBatch8(b *testing.B) {
	b.ReportAllocs()
	r, plan, res := captureOneRep(b, replayTestConfig(16), 16)
	rp, err := NewReplayer(r.Network(), plan, res.FinishTimes, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rp.Replay(8); !ok {
			b.Fatal("replay failed")
		}
	}
}

// BenchmarkReplayCapture measures the one-off cost of the capturing run
// plus plan compilation — what the replay engine pays before its first
// fast repetition.
func BenchmarkReplayCapture(b *testing.B) {
	b.ReportAllocs()
	cfg := replayTestConfig(16)
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cap, err := r.RunCapture(16, func(p *Proc) error {
			if p.Rank() == 0 {
				p.Mark()
			}
			p.Barrier()
			replayPattern(p)
			p.Barrier()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cap.Plan(0, -1); err != nil {
			b.Fatal(err)
		}
	}
}
