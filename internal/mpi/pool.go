package mpi

import (
	"fmt"
	"sync"

	"mpicollperf/internal/obs"
)

// RunnerPool hands out warm Runners to concurrent borrowers. A Runner
// amortizes scheduler, capture, plan, and replay buffers across the runs
// it executes — but only for its owner, because a Runner is
// single-threaded. A parallel measurement sweep therefore wants one warm
// Runner per live worker, reused across sweeps, instead of constructing a
// Runner (and its network) per worker per call: the pool provides exactly
// that, bounded at a fixed capacity.
//
// Runners are constructed lazily by the pool's factory, at most capacity
// of them over the pool's lifetime; Get blocks while all are borrowed.
// Borrowed Runners carry whatever warm buffers their previous borrower
// grew, which never affects results: every run Resets the network and
// scheduler state first, so runs on a pooled Runner are bit-identical to
// runs on a fresh one.
//
// A RunnerPool is safe for concurrent use. It needs no Close: an idle
// pool holds plain memory that the garbage collector reclaims with it.
type RunnerPool struct {
	// sem holds one token per unborrowed slot; Get blocks on it, Put
	// releases it. The free list is LIFO so the most recently used — and
	// therefore warmest — Runner is handed out first, and a lone borrower
	// keeps hitting the same Runner instead of round-robining the pool
	// into existence. mu guards free only; a borrow or return holds it
	// for one slice push or pop.
	sem     chan struct{}
	mu      sync.Mutex
	free    []*Runner
	factory func() (*Runner, error)
	// tmpl is the pool's plan-template store: borrowers of the same pool
	// measure on the same platform, so structure-class templates captured
	// by one borrower are rebindable by every other — and, because the
	// pool outlives individual sweeps, by later sweeps too.
	tmpl *TemplateStore

	created *obs.Counter
	inUse   *obs.Gauge
}

// NewRunnerPool builds a pool of at most capacity Runners, constructed on
// demand by factory. The factory must return a fresh, independent Runner
// on every call (distinct networks — pooled Runners run concurrently).
// metrics, which may be nil, receives mpi_runner_pool_created_total and
// the mpi_runner_pool_in_use level gauge.
func NewRunnerPool(capacity int, factory func() (*Runner, error), metrics *obs.Registry) (*RunnerPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("mpi: runner pool capacity %d, need >= 1", capacity)
	}
	if factory == nil {
		return nil, fmt.Errorf("mpi: runner pool needs a factory")
	}
	p := &RunnerPool{
		sem:     make(chan struct{}, capacity),
		factory: factory,
		tmpl:    NewTemplateStore(),
		created: metrics.Counter("mpi_runner_pool_created_total"),
		inUse:   metrics.Gauge("mpi_runner_pool_in_use"),
	}
	for i := 0; i < capacity; i++ {
		p.sem <- struct{}{}
	}
	return p, nil
}

// Cap returns the pool's capacity: the maximum number of Runners borrowed
// at once.
func (p *RunnerPool) Cap() int { return cap(p.sem) }

// Templates returns the pool's plan-template store. It persists for the
// pool's lifetime, so structure classes captured during one sweep are
// rebound — never re-captured — by every later sweep over the pool.
func (p *RunnerPool) Templates() *TemplateStore { return p.tmpl }

// Get borrows a Runner, blocking while all of the pool's Runners are
// borrowed, and constructing one when the free list is empty but a slot
// is. The borrower owns the Runner exclusively until Put.
func (p *RunnerPool) Get() (*Runner, error) {
	<-p.sem
	var r *Runner
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if r == nil {
		var err error
		if r, err = p.factory(); err != nil {
			// Release the slot so the pool stays at full capacity.
			p.sem <- struct{}{}
			return nil, err
		}
		p.created.Inc()
	}
	p.inUse.Add(1)
	return r, nil
}

// Put returns a borrowed Runner to the pool. Putting a Runner that was
// not borrowed from this pool grows it past its capacity (and, full,
// blocks); don't.
func (p *RunnerPool) Put(r *Runner) {
	if r == nil {
		return
	}
	p.inUse.Add(-1)
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
	p.sem <- struct{}{}
}
