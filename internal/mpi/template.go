package mpi

import (
	"sync"
	"time"
)

// TemplateStore is a concurrency-safe map from structure-class keys to
// plan templates, under one mutex. The lock guards only map lookups and
// flight bookkeeping — never a capture — and a sweep touches it a few
// times per grid point, so one lock is all the traffic needs.
//
// A template is the plan of the first captured point of its structure
// class; every later point of the class rebinds it (Runner.Rebind)
// instead of re-capturing under the scheduler. Put stores a private
// clone, so callers may pass plans backed by recycled Runner buffers;
// Get hands out the stored plan itself, which must be treated as
// immutable (Rebind never mutates its template).
//
// Captures are single-flight: Acquire elects exactly one leader per
// class, and every concurrent caller of the same class blocks until the
// leader publishes (Put) or abandons (the release closure) its capture —
// a capture costs ≈3.3× a rebind, so letting racing workers duplicate it
// is the main way a parallel sweep wastes multicore cycles. A publish
// with no flight pending (a rebind-divergence refresh) replaces the
// stored template wholesale; readers that already hold the old plan keep
// using it, which is benign — both plans are validated for the class.
type TemplateStore struct {
	mu sync.Mutex
	m  map[string]*templateEntry
}

// templateEntry is one structure class's slot: a capture in flight
// (done open), a published template (done closed, plan set), or an
// abandoned flight (removed from the map before done is closed, plan
// nil). plan is written at most once, strictly before done is closed,
// so readers that return from <-done read it without a lock.
type templateEntry struct {
	done chan struct{}
	plan *Plan
}

// completed reports whether the entry's flight has finished. Callers
// must hold the store lock (close happens under it too, so the select
// never races a concurrent close).
func (e *templateEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewTemplateStore builds an empty store.
func NewTemplateStore() *TemplateStore {
	return &TemplateStore{m: make(map[string]*templateEntry)}
}

// Get returns the template stored under key, or nil. It never blocks: a
// capture in flight reads as absent. The returned plan is shared and
// immutable: rebind it, never mutate it.
func (s *TemplateStore) Get(key string) *Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil && e.completed() {
		return e.plan
	}
	return nil
}

// Acquire resolves key's template with single-flight capture election:
//
//   - Template published: returns (plan, nil, 0) — rebind it.
//   - Nothing known about the class: the caller is elected leader and
//     gets (nil, release, 0). It must capture the class, Put the plan,
//     and then call release; if the capture cannot be published (error,
//     engine fallback), calling release alone abandons the flight and
//     unblocks the waiters empty-handed. release is idempotent and
//     cannot touch any later flight, so deferring it is always safe.
//   - A leader is already capturing: blocks until that flight finishes
//     and returns (plan, nil, waited). plan is nil when the leader
//     abandoned — the caller proceeds leaderless (its own capture-path
//     Put, if any, installs the template for later points).
//
// Blocking callers wait on the leader's publish, not its whole
// measurement, so the wait is bounded by one capture (≈ the scheduler
// repetition plus echo validation).
func (s *TemplateStore) Acquire(key string) (p *Plan, release func(), waited time.Duration) {
	s.mu.Lock()
	e := s.m[key]
	if e == nil {
		e = &templateEntry{done: make(chan struct{})}
		s.m[key] = e
		s.mu.Unlock()
		return nil, func() { s.abandon(key, e) }, 0
	}
	s.mu.Unlock()
	select {
	case <-e.done:
		return e.plan, nil, 0
	default:
	}
	start := time.Now()
	<-e.done
	return e.plan, nil, time.Since(start)
}

// abandon ends the flight e without a template: the entry is forgotten
// (so the next Acquire of the class elects a fresh leader) and the
// waiters are released with a nil plan. It is a no-op once the flight
// completed — in particular after the leader's own Put — and can never
// affect a different, later flight under the same key.
func (s *TemplateStore) abandon(key string, e *templateEntry) {
	s.mu.Lock()
	if s.m[key] == e && !e.completed() {
		delete(s.m, key)
		close(e.done)
	}
	s.mu.Unlock()
}

// Put stores a clone of p under key. A capture flight pending on the key
// is completed in place — its waiters unblock with the plan — and any
// previously published template is replaced.
func (s *TemplateStore) Put(key string, p *Plan) {
	q := p.Clone()
	s.mu.Lock()
	if e := s.m[key]; e != nil && !e.completed() {
		e.plan = q
		close(e.done)
	} else {
		done := make(chan struct{})
		close(done)
		s.m[key] = &templateEntry{done: done, plan: q}
	}
	s.mu.Unlock()
}

// Len returns the number of published templates (captures in flight do
// not count until their Put).
func (s *TemplateStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.m {
		if e.completed() && e.plan != nil {
			n++
		}
	}
	return n
}
