package mpi

import (
	"errors"
	"math"
	"testing"
	"unsafe"
)

// TestEventLayoutSizes pins the compact capture and plan layouts: the
// retained plan and template memory of a sweep scale with these sizes.
func TestEventLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"capEvent", unsafe.Sizeof(capEvent{}), 48},
		{"planEvent", unsafe.Sizeof(planEvent{}), 28},
		{"planBind", unsafe.Sizeof(planBind{}), 16},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.max)
		}
	}
}

// captureWith captures one marked repetition of body on a fresh Runner
// (as captureSized does) and returns the compile result.
func captureWith(t *testing.T, nprocs int, body func(*Proc)) (*Runner, *Plan, error) {
	t.Helper()
	r, err := NewRunner(replayTestConfig(nprocs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, cap, err := r.RunCapture(nprocs, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Mark()
		}
		p.Barrier()
		body(p)
		p.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := r.CompilePlan(cap, 0, -1)
	return r, plan, err
}

// pairOp sends bytes from rank 0 to rank 1 under tag.
func pairOp(tag, bytes int) func(*Proc) {
	return func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, tag, nil, bytes)
		case 1:
			p.Recv(0, tag, nil)
		}
	}
}

// TestPlanRefusesValuesBeyondInt32: a tag or byte count that does not fit
// the int32 plan layout makes compilation fail (the measurement harness
// falls back to the scheduler) and a rebind diverge; neither is ever
// truncated into a plan that replays a different program.
func TestPlanRefusesValuesBeyondInt32(t *testing.T) {
	const nprocs = 2
	wideTag := 7 + 1<<32 // truncates to tag 7
	wideBytes := 4096 + 1<<32
	if _, _, err := captureWith(t, nprocs, pairOp(wideTag, 4096)); err == nil {
		t.Fatal("compiled a plan whose tag does not fit int32")
	}
	if _, _, err := captureWith(t, nprocs, pairOp(7, wideBytes)); err == nil {
		t.Fatal("compiled a plan whose send size does not fit int32")
	}
	if _, _, err := captureWith(t, nprocs, pairOp(7, math.MaxInt32)); err != nil {
		t.Fatalf("MaxInt32-byte send must still compile: %v", err)
	}

	r, tpl, err := captureWith(t, nprocs, pairOp(7, 4096))
	if err != nil {
		t.Fatal(err)
	}
	tpl = tpl.Clone()
	rebind := func(tag, bytes int) error {
		_, err := r.Rebind(tpl, func(p *Proc) error {
			p.Barrier()
			pairOp(tag, bytes)(p)
			p.Barrier()
			return nil
		})
		return err
	}
	if err := rebind(7, 8192); err != nil {
		t.Fatalf("in-range rebind: %v", err)
	}
	for _, c := range []struct {
		name       string
		tag, bytes int
	}{{"tag", wideTag, 4096}, {"bytes", 7, wideBytes}} {
		var re *RebindError
		if err := rebind(c.tag, c.bytes); !errors.As(err, &re) {
			t.Errorf("rebind with a %s beyond int32: err = %v, want a *RebindError", c.name, err)
		}
	}
}

// TestPlanCloneCoversTimings: Clone deep-copies the per-send timing
// table and EquivalentTo compares it, so a template in a store never
// aliases a Runner's recycled timings and two plans differing only in a
// link timing are not equivalent.
func TestPlanCloneCoversTimings(t *testing.T) {
	_, plan, _ := captureSized(t, replayDualConfig(8), 8, 8192, 256)
	if len(plan.timings) != plan.Sends() || plan.Sends() == 0 {
		t.Fatalf("%d timings for %d sends", len(plan.timings), plan.Sends())
	}
	q := plan.Clone()
	if !q.EquivalentTo(plan) || !plan.EquivalentTo(q) {
		t.Fatal("clone not equivalent to its original")
	}
	if &q.timings[0] == &plan.timings[0] {
		t.Fatal("clone aliases the original's timing table")
	}
	q.timings[0].TxTime *= 2
	if q.EquivalentTo(plan) {
		t.Fatal("plans with different link timings reported equivalent")
	}
	if plan.timings[0].TxTime == q.timings[0].TxTime {
		t.Fatal("mutating the clone's timings changed the original")
	}
	q = plan.Clone()
	q.timings = q.timings[:len(q.timings)-1]
	if q.EquivalentTo(plan) {
		t.Fatal("plans with timing tables of different lengths reported equivalent")
	}
}
