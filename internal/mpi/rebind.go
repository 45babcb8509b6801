package mpi

import (
	"fmt"
	"math"
)

// Plan walks: re-executing user closures against a plan with the
// scheduler switched off. Each rank's closure runs sequentially on the
// caller's goroutine — no goroutines, no channels, no cross-rank
// synchronisation — while a cursor streams through the rank's slice of
// the plan, checking every submitted operation's kind, peer, tag, byte
// count, sleep duration and wait set against the recorded event. Any
// mismatch is a typed *RebindError. The walk has two uses:
//
//   - Echo (Runner.EchoRun), the replay engine's correctness gate. A
//     Replayer re-times a Plan without running user code, so it must know
//     the program's structure is the same in every repetition. The echo
//     walks the captured plan with each rank's clock taken from the
//     release times a validating replay pass produced
//     (Replayer.EchoClocks). Timing-dependent control flow can only change
//     a program's structure by changing some rank's own operation stream
//     at the point of divergence; replayed clocks are bit-identical to the
//     scheduler's up to the causal frontier of any divergence, so the
//     echoed stream sees exactly the clocks the real program would have
//     and diverges at the same operation — which the comparison flags.
//   - Rebind (Runner.Rebind), the template fast path. A captured Plan's
//     *structure* — event kinds, peers, tags, slots, wait sets — is a
//     function of the operation's shape (algorithm, communicator size,
//     segment count), not of its byte sizes. Two grid points of the same
//     structure class therefore share a skeleton, and the second point
//     only needs a new binding. The rebind walk runs with the clock frozen
//     and harvests the new point's byte counts and sleep durations into a
//     fresh binding instead of comparing them; link timings and
//     jitter-draw flags are then recomputed from the network.
//
// Soundness of rebind: the template was echo-validated when it was
// captured, and the walk structurally compares every operation of the new
// point against it. What the walk cannot see is a program whose *sizes*
// depend on received data or on virtual time — Request.Bytes reads 0 and
// Now is frozen during the pass — so callers must key templates by
// everything that determines structure and sizes (the experiment layer's
// structure-class keys do). The shipped collective operations read
// neither.

// RebindError reports that a program's operation stream diverged from the
// plan it was walked against, in an echo run or a rebind pass. It is the
// typed signal for the measurement harness to fall back: to a full capture
// of the point after a rebind, to the scheduler engine after an echo.
type RebindError struct {
	// Rank is the rank whose stream diverged (-1 for plan-level
	// mismatches such as a wrong network shape).
	Rank int
	// Why describes the divergence.
	Why string
}

func (e *RebindError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("mpi: rebind: %s", e.Why)
	}
	return fmt.Sprintf("mpi: rebind: rank %d: %s", e.Rank, e.Why)
}

// walkCursor is one rank's position in a plan walk. With clk set the walk
// is an echo: bindings are compared and the rank's clock follows clk.
// Without it the walk is a rebind: bindings are harvested into plan.binds
// and the clock stays frozen.
type walkCursor struct {
	plan *Plan
	clk  []float64 // release clock per plan event, nil in a rebind
	next int32     // next unconsumed event in the rank's slice
	end  int32
}

// walkStep checks one submitted operation against the plan and advances
// the rank's cursor. Divergence panics with a *RebindError, recovered by
// walkRank.
func (p *Proc) walkStep(op *operation) {
	w := p.walk
	idx := w.next
	if idx >= w.end {
		p.walkFail(op, idx, "past the end of the plan")
	}
	w.next++
	pe := &w.plan.events[idx]
	pb := &w.plan.binds[idx]
	harvest := w.clk == nil
	if harvest {
		*pb = planBind{}
	}
	want := evKind(0)
	switch op.kind {
	case opSleep:
		want = evSleep
		if harvest {
			pb.dur = op.dur
		} else if pe.kind == evSleep && pb.dur != op.dur {
			p.walkFail(op, idx, "duration changed")
		}
	case opMark:
		want = evMark
	case opBarrier:
		want = evBarrier
	case opIsend:
		want = evSend
		if op.data != nil {
			p.walkFail(op, idx, "send carries payload bytes")
		}
		if harvest {
			if op.bytes > math.MaxInt32 {
				p.walkFail(op, idx, "size beyond int32")
			}
			pb.bytes = int32(op.bytes)
		}
		if pe.kind == evSend && (int(pe.peer) != op.peer || int(pe.tag) != op.tag || int(pb.bytes) != op.bytes) {
			p.walkFail(op, idx, "destination, tag, or size changed")
		}
		op.req.slot = pe.slot
	case opIrecv:
		want = evRecv
		if pe.kind == evRecv && (int(pe.peer) != op.peer || int(pe.tag) != op.tag) {
			p.walkFail(op, idx, "source or tag changed")
		}
		op.req.slot = pe.slot
		// A rebind back-fills receive sizes after the walk, so they read 0.
		op.req.bytes = int(pb.bytes)
	case opWait:
		want = evWait
		if pe.kind == evWait {
			set := w.plan.waitSet(pe)
			if len(set) != len(op.reqs) {
				p.walkFail(op, idx, "request count changed")
			}
			for i, r := range op.reqs {
				if r.slot != set[i] {
					p.walkFail(op, idx, "request set changed")
				}
			}
		}
	default:
		p.walkFail(op, idx, "operation kind not replayable")
	}
	if pe.kind != want {
		p.walkFail(op, idx, fmt.Sprintf("plan has %v here", pe.kind))
	}
	if !harvest {
		p.clock = w.clk[idx]
	}
}

func (p *Proc) walkFail(op *operation, idx int32, why string) {
	panic(&RebindError{Rank: p.rank, Why: fmt.Sprintf("%v at event %d: %s", op.kind, idx, why)})
}

func (k evKind) String() string {
	switch k {
	case evSleep:
		return "sleep"
	case evSend:
		return "send"
	case evRecv:
		return "recv"
	case evWait:
		return "wait"
	case evBarrier:
		return "barrier"
	case evMark:
		return "mark"
	}
	return "unknown"
}

// walk runs fn for every rank of plan, one rank after another on the
// caller's goroutine, with each rank's operations routed through walkStep
// (clk nil: a rebind; otherwise an echo whose ranks start at start). It
// returns the first rank's divergence as a *RebindError.
func (r *Runner) walk(plan *Plan, clk, start []float64, fn func(*Proc) error) error {
	n := plan.nprocs
	for len(r.procs) < n {
		r.procs = append(r.procs, &Proc{rank: len(r.procs)})
	}
	r.cursor = walkCursor{plan: plan, clk: clk}
	defer func() { r.cursor = walkCursor{} }()
	for rank := 0; rank < n; rank++ {
		p := r.procs[rank]
		p.size = n
		p.clock = 0
		if start != nil {
			p.clock = start[rank]
		}
		p.seq = 0
		r.cursor.next, r.cursor.end = plan.rankOff[rank], plan.rankOff[rank+1]
		p.walk = &r.cursor
		err := walkRank(p, fn)
		p.walk = nil
		if err != nil {
			return err
		}
	}
	return nil
}

// walkRank runs one rank's closure in a plan walk, converting panics and
// errors into a *RebindError and checking that the rank consumed exactly
// its slice of the plan.
func walkRank(p *Proc, fn func(*Proc) error) error {
	err := rankBody(p, fn)
	if err == nil && p.walk.next != p.walk.end {
		err = fmt.Errorf("stopped %d events short of the plan", p.walk.end-p.walk.next)
	}
	if _, ok := err.(*RebindError); err != nil && !ok {
		err = &RebindError{Rank: p.rank, Why: err.Error()}
	}
	return err
}

// EchoRun re-executes fn against plan: every rank runs fn with the
// scheduler switched off, validating its operation stream against the
// plan's events and taking clocks from clk — the release times of a
// replay pass over the same plan (Replayer.EchoClocks), with start
// holding the per-rank clocks that pass began from. A nil error means
// every rank's stream matched its slice of the plan exactly; a divergence,
// rank error, or panic is reported as a *RebindError, telling the caller
// the plan is not structurally stable and replayed timings cannot be
// trusted.
//
// Plans record structure, not data, so an echo run delivers no payload
// bytes; callers must keep payload-carrying programs (Capture.HasPayload)
// on the scheduler engine.
func (r *Runner) EchoRun(plan *Plan, clk []float64, start []float64, fn func(*Proc) error) error {
	if len(clk) != len(plan.events) {
		return fmt.Errorf("mpi: echo: %d clocks for a %d-event plan", len(clk), len(plan.events))
	}
	if len(start) != plan.nprocs {
		return fmt.Errorf("mpi: echo: %d start clocks for a %d-rank plan", len(start), plan.nprocs)
	}
	return r.walk(plan, clk, start, fn)
}

// Rebind binds the template tpl to a new operation: fn is re-executed for
// every rank against the template's structural skeleton. Each submitted
// operation must match the skeleton's kind, peer, tag, and request wiring
// — any divergence returns a *RebindError, telling the caller to fall
// back to a full capture — while its byte counts and sleep durations are
// harvested into a fresh binding. Link timings, jitter-draw flags, and the
// barrier cost are then recomputed from the Runner's network exactly as a
// capture of the new point would have computed them, so replaying the
// rebound plan is bit-identical to capture-then-replay of that point.
//
// The returned Plan aliases the template's skeleton (which stays
// untouched) and the Runner's recycled binding buffer: it is valid only
// until the next Rebind on this Runner, and the template must not be
// mutated concurrently (TemplateStore hands out immutable clones). The
// network must have the shape the template was captured on (same NIC
// count, at least Procs nodes); the caller keys templates per profile.
//
// Clocks are frozen at zero during the pass: fn must not branch on
// Proc.Now or on received message sizes (Request.Bytes reads 0). The
// measurement closures and the shipped collectives satisfy this; the
// differential fuzz target FuzzRebindMatchesCapture guards it.
func (r *Runner) Rebind(tpl *Plan, fn func(*Proc) error) (*Plan, error) {
	n := tpl.nprocs
	cfg := r.net.Config()
	if n > r.net.Nodes() {
		return nil, &RebindError{Rank: -1, Why: fmt.Sprintf("template spans %d ranks, network has %d nodes", n, r.net.Nodes())}
	}
	if tpl.nics != cfg.NICs() {
		return nil, &RebindError{Rank: -1, Why: fmt.Sprintf("template captured on %d NICs, network has %d", tpl.nics, cfg.NICs())}
	}
	if r.rebound == nil {
		r.rebound = &Plan{}
	}
	// The binding and timing buffers are Runner-owned and grow-only (the
	// rebound plan's binds and timings fields alias them, so they must not
	// be recycled through the plan: *p = *tpl overwrites those fields with
	// the template's own arrays).
	r.rebindBinds = grow(r.rebindBinds, len(tpl.events))
	r.rebindTimings = grow(r.rebindTimings, len(tpl.timings))
	p := r.rebound
	*p = *tpl // alias the immutable skeleton slices
	p.binds = r.rebindBinds
	p.timings = r.rebindTimings
	p.draws = 0
	p.barrierCost = barrierCostFor(r.opts, cfg, n)
	if err := r.walk(p, nil, nil, fn); err != nil {
		return nil, err
	}

	// Second pass: recompute every send's effective link timing and jitter
	// draw from the new byte counts, and back-fill receive byte counts
	// from their matched sends — exactly what Capture.plan computes for a
	// fresh capture of this point.
	noisy := cfg.NoiseAmplitude > 0
	sends := 0
	for rank := 0; rank < n; rank++ {
		for i := tpl.rankOff[rank]; i < tpl.rankOff[rank+1]; i++ {
			pe := &tpl.events[i]
			if pe.kind != evSend {
				continue
			}
			pb := &p.binds[i]
			lt := r.net.TimingFor(rank, int(pe.peer), int(pb.bytes))
			draws := !lt.Local && noisy && lt.TxTime > 0
			if draws {
				p.draws++
			}
			p.timings[sends] = lt
			pb.timing = sendTiming(sends, draws)
			sends++
			if ps := pe.peerSlot; ps >= 0 {
				p.binds[tpl.slotEvent[ps]].bytes = pb.bytes
			}
		}
	}
	return p, nil
}
