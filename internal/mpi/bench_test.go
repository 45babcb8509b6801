package mpi

import (
	"testing"
)

// The BenchmarkScheduler* family measures the runtime's hot path in
// isolation: a warm Runner executing programs whose cost is dominated by
// scheduler work (admit, the pending min-heap, message matching, release)
// rather than by the simulated algorithms. allocs/op is the number to
// watch — the steady-state path must stay at zero per operation (a
// per-run constant remains: about 13 allocations per rank to build its
// iter.Pull coroutine, and the FinishTimes copy).

// BenchmarkSchedulerPingPong measures one warm-Runner run of 100 blocking
// round trips between two ranks — 400 operations through the full
// submit/schedule/match/resume cycle per iteration.
func BenchmarkSchedulerPingPong(b *testing.B) {
	b.ReportAllocs()
	r, err := NewRunner(testConfig(2), Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := func(p *Proc) error {
		for i := 0; i < 100; i++ {
			if p.Rank() == 0 {
				p.Send(1, 0, nil, 8192)
				p.Recv(1, 1, nil)
			} else {
				p.Recv(0, 0, nil)
				p.Send(0, 1, nil, 8192)
			}
		}
		return nil
	}
	if _, err := r.Run(2, prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(2, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerFanIn stresses the pending queue: 64 ranks all
// sending to rank 0, so the scheduler's frontier stays wide and the
// min-heap (formerly an O(n) scan) does the selection work.
func BenchmarkSchedulerFanIn(b *testing.B) {
	b.ReportAllocs()
	const n = 64
	r, err := NewRunner(testConfig(n), Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := func(p *Proc) error {
		const rounds = 8
		if p.Rank() == 0 {
			for i := 0; i < rounds*(n-1); i++ {
				p.Recv(1+i%(n-1), 0, nil)
			}
		} else {
			for i := 0; i < rounds; i++ {
				p.Send(0, 0, nil, 1024)
			}
		}
		return nil
	}
	if _, err := r.Run(n, prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(n, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerBarrierStorm measures repeated full-communicator
// barriers — the synchronisation pattern of the measurement harness's
// repetition loop.
func BenchmarkSchedulerBarrierStorm(b *testing.B) {
	b.ReportAllocs()
	const n = 32
	r, err := NewRunner(testConfig(n), Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := func(p *Proc) error {
		for i := 0; i < 20; i++ {
			p.Barrier()
		}
		return nil
	}
	if _, err := r.Run(n, prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(n, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerRunOverhead measures the fixed cost of one minimal
// warm-Runner run (16 ranks, one barrier): building and stopping the
// rank coroutines, scheduler reset, and result assembly — the part of a
// measurement that is not per-operation work.
func BenchmarkSchedulerRunOverhead(b *testing.B) {
	b.ReportAllocs()
	const n = 16
	r, err := NewRunner(testConfig(n), Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := func(p *Proc) error {
		p.Barrier()
		return nil
	}
	if _, err := r.Run(n, prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(n, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerColdRun is the non-reusing baseline: the same program
// as BenchmarkSchedulerPingPong through the one-shot Run entry point,
// paying network construction and scheduler allocation every time. The
// delta against BenchmarkSchedulerPingPong is what a Runner saves.
func BenchmarkSchedulerColdRun(b *testing.B) {
	b.ReportAllocs()
	cfg := testConfig(2)
	prog := func(p *Proc) error {
		for i := 0; i < 100; i++ {
			if p.Rank() == 0 {
				p.Send(1, 0, nil, 8192)
				p.Recv(1, 1, nil)
			} else {
				p.Recv(0, 0, nil)
				p.Send(0, 1, nil, 8192)
			}
		}
		return nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, 2, prog); err != nil {
			b.Fatal(err)
		}
	}
}
