package mpi

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// failingPrograms are the ways a run ends in an error. Each must stop
// every rank's coroutine, including ranks suspended mid-operation when
// the run aborts, and leave nothing in the Runner that changes a later
// run.
var failingPrograms = []struct {
	name, want string
	fn         func(*Proc) error
}{
	{"deadlock", "deadlock", func(p *Proc) error {
		p.Recv((p.Rank()+1)%p.Size(), 0, nil)
		return nil
	}},
	{"rank-error", "boom", func(p *Proc) error {
		if p.Rank() == 1 {
			p.Sleep(1e-6)
			return errors.New("boom")
		}
		p.Recv((p.Rank()+1)%p.Size(), 0, nil)
		return nil
	}},
	{"rank-panic", "kaboom", func(p *Proc) error {
		if p.Rank() == 2 {
			p.Sleep(1e-6)
			panic("kaboom")
		}
		p.Barrier()
		return nil
	}},
	{"truncation", "truncation", func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, make([]byte, 100), -1)
		case 1:
			p.Recv(0, 0, make([]byte, 10))
		}
		p.Barrier()
		return nil
	}},
	{"barrier-after-exit", "barrier", func(p *Proc) error {
		if p.Rank() == 0 {
			return nil
		}
		p.Sleep(1)
		p.Barrier()
		return nil
	}},
}

// markedPattern is replayPattern bracketed by barriers and root marks,
// so a capture of it has plan segments to compare.
func markedPattern(p *Proc) error {
	if p.Rank() == 0 {
		p.Mark()
	}
	p.Barrier()
	replayPattern(p)
	p.Barrier()
	if p.Rank() == 0 {
		p.Mark()
	}
	return nil
}

// TestFailedRunsLeakNoCoroutines drives one warm Runner through every
// failing program, under Run and RunCapture, and checks that the
// goroutine count is back at its baseline after each: a coroutine left
// unstopped stays parked (and counted) for good. The Runner must then
// run a good program bit-identically to a fresh Runner.
func TestFailedRunsLeakNoCoroutines(t *testing.T) {
	const n = 4
	cfg := replayTestConfig(n)
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(n, markedPattern); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, fp := range failingPrograms {
		for _, capture := range []bool{false, true} {
			var err error
			if capture {
				_, _, err = r.RunCapture(n, fp.fn)
			} else {
				_, err = r.Run(n, fp.fn)
			}
			if err == nil || !strings.Contains(err.Error(), fp.want) {
				t.Fatalf("%s (capture %v): err = %v, want %q", fp.name, capture, err, fp.want)
			}
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%s (capture %v): %d goroutines after the run, %d before", fp.name, capture, got, base)
			}
		}
	}

	fresh, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(n, markedPattern)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(n, markedPattern)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run after failures diverged from a fresh Runner:\n got %+v\nwant %+v", got, want)
	}
	wantRes, wantCap, err := fresh.RunCapture(n, markedPattern)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotCap, err := r.RunCapture(n, markedPattern)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("RunCapture after failures diverged from a fresh Runner:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	if gotCap.slots != wantCap.slots || gotCap.payload != wantCap.payload || gotCap.wide != wantCap.wide ||
		!reflect.DeepEqual(gotCap.events, wantCap.events) ||
		!reflect.DeepEqual(gotCap.waitSlots, wantCap.waitSlots) ||
		!reflect.DeepEqual(gotCap.marks, wantCap.marks) {
		t.Fatal("capture after failures diverged from a fresh Runner's")
	}
}
