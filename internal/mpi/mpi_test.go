package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mpicollperf/internal/simnet"
)

func testConfig(nodes int) simnet.Config {
	return simnet.Config{
		Nodes:        nodes,
		Latency:      20e-6,
		ByteTimeSend: 1e-9,
		ByteTimeRecv: 1e-9,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(testConfig(2), 0, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("nprocs 0 should fail")
	}
	if _, err := Run(testConfig(2), 5, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("nprocs > nodes should fail")
	}
	if _, err := Run(simnet.Config{Nodes: -1}, 1, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("bad network config should fail")
	}
}

func TestSingleRankTrivial(t *testing.T) {
	res, err := Run(testConfig(1), 1, func(p *Proc) error {
		if p.Rank() != 0 || p.Size() != 1 {
			t.Errorf("rank/size = %d/%d", p.Rank(), p.Size())
		}
		p.Sleep(5e-3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakeSpan != 5e-3 {
		t.Fatalf("MakeSpan = %v", res.MakeSpan)
	}
}

func TestPingPongPayload(t *testing.T) {
	msg := []byte("hello collective world")
	var got []byte
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 7, msg, -1)
			buf := make([]byte, 64)
			n := p.Recv(1, 8, buf)
			got = append([]byte(nil), buf[:n]...)
		case 1:
			buf := make([]byte, 64)
			n := p.Recv(0, 7, buf)
			reply := bytes.ToUpper(buf[:n])
			p.Send(0, 8, reply, -1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HELLO COLLECTIVE WORLD" {
		t.Fatalf("round trip payload = %q", got)
	}
}

func TestPointToPointTimeMatchesModel(t *testing.T) {
	cfg := testConfig(2)
	const m = 1 << 16
	var recvTime float64
	_, err := Run(cfg, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, m)
		} else {
			p.Recv(0, 0, nil)
			recvTime = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.PointToPointTime(m)
	if math.Abs(recvTime-want) > 1e-12 {
		t.Fatalf("receive completed at %v, Hockney model says %v", recvTime, want)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Two messages with the same (src, tag) must be received in send order.
	var first, second int
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 3, []byte{111}, -1)
			p.Send(1, 3, []byte{222}, -1)
		} else {
			a := make([]byte, 1)
			b := make([]byte, 1)
			p.Recv(0, 3, a)
			p.Recv(0, 3, b)
			first, second = int(a[0]), int(b[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 111 || second != 222 {
		t.Fatalf("messages overtook: got %d then %d", first, second)
	}
}

func TestTagSelectivity(t *testing.T) {
	// A receive on tag 2 must match the tag-2 message even when a tag-1
	// message arrived first.
	var tag2Payload byte
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte{10}, -1)
			p.Send(1, 2, []byte{20}, -1)
		} else {
			buf := make([]byte, 1)
			p.Recv(0, 2, buf)
			tag2Payload = buf[0]
			p.Recv(0, 1, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tag2Payload != 20 {
		t.Fatalf("tag 2 receive got payload %d", tag2Payload)
	}
}

func TestUnexpectedMessageBuffered(t *testing.T) {
	// The send happens long before the receive is posted; the message must
	// wait and the receive completes at the moment of posting.
	var recvAt float64
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 100)
		} else {
			p.Sleep(1.0) // one virtual second, long after delivery
			p.Recv(0, 0, nil)
			recvAt = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvAt != 1.0 {
		t.Fatalf("late-posted receive completed at %v, want 1.0", recvAt)
	}
}

func TestIsendOverlapsComputation(t *testing.T) {
	// Non-blocking sends should let the sender proceed immediately.
	cfg := testConfig(2)
	var afterIsend float64
	_, err := Run(cfg, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			req := p.Isend(1, 0, nil, 1<<20)
			afterIsend = p.Now()
			p.Wait(req)
		} else {
			p.Recv(0, 0, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if afterIsend > cfg.SendOverhead+1e-15 {
		t.Fatalf("Isend blocked the sender until %v", afterIsend)
	}
}

func TestWaitAllAdvancesToLatest(t *testing.T) {
	cfg := testConfig(3)
	var done float64
	_, err := Run(cfg, 3, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			r1 := p.Irecv(1, 0, nil)
			r2 := p.Irecv(2, 0, nil)
			p.WaitAll(r1, r2)
			done = p.Now()
		case 1:
			p.Send(0, 0, nil, 1000)
		case 2:
			p.Sleep(0.25)
			p.Send(0, 0, nil, 1000)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done < 0.25 {
		t.Fatalf("WaitAll returned at %v before the slow sender", done)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	times := make([]float64, 4)
	_, err := Run(testConfig(4), 4, func(p *Proc) error {
		p.Sleep(float64(p.Rank()) * 0.1)
		p.Barrier()
		times[p.Rank()] = p.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if times[r] != times[0] {
			t.Fatalf("ranks left barrier at different times: %v", times)
		}
	}
	if times[0] <= 0.3 {
		t.Fatalf("barrier exit %v not after slowest arrival 0.3", times[0])
	}
}

func TestBarrierAfterExitFails(t *testing.T) {
	_, err := Run(testConfig(3), 3, func(p *Proc) error {
		if p.Rank() == 0 {
			return nil // exits immediately
		}
		p.Sleep(1)
		p.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Fatalf("err = %v, want barrier-after-exit error", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		// Both ranks receive; nobody sends.
		p.Recv(1-p.Rank(), 0, nil)
		return nil
	})
	if err == nil || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "unmatched request") {
		t.Fatalf("deadlock report lacks detail: %v", err)
	}
}

func TestDeadlockMixedBarrier(t *testing.T) {
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Barrier()
		} else {
			p.Recv(0, 0, nil) // never satisfied; rank 0 is in barrier
		}
		return nil
	})
	if err == nil || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "barrier") {
		t.Fatalf("deadlock report should mention barrier: %v", err)
	}
}

func TestUserErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(testConfig(3), 3, func(p *Proc) error {
		if p.Rank() == 1 {
			return boom
		}
		p.Recv((p.Rank()+1)%3, 0, nil) // would deadlock without abort
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error should identify the failing rank: %v", err)
	}
}

func TestUserPanicBecomesError(t *testing.T) {
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		p.Recv(0, 0, nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncationError(t *testing.T) {
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]byte, 100), -1)
		} else {
			p.Recv(0, 0, make([]byte, 10))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "truncation") {
		t.Fatalf("err = %v, want truncation", err)
	}
}

func TestAPIErrorsSurface(t *testing.T) {
	cases := []struct {
		name string
		fn   func(p *Proc) error
	}{
		{"send to self", func(p *Proc) error { p.Send(p.Rank(), 0, nil, 1); return nil }},
		{"peer out of range", func(p *Proc) error { p.Send(99, 0, nil, 1); return nil }},
		{"negative sleep", func(p *Proc) error { p.Sleep(-1); return nil }},
		{"nil data without size", func(p *Proc) error { p.Isend((p.Rank()+1)%2, 0, nil, -1); return nil }},
		{"size mismatch", func(p *Proc) error { p.Isend((p.Rank()+1)%2, 0, []byte{1, 2}, 5); return nil }},
		{"wait on nil", func(p *Proc) error { p.Wait(nil); return nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(testConfig(2), 2, c.fn); err == nil {
				t.Fatalf("%s: expected error", c.name)
			}
		})
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			r := p.Isend(1, 0, nil, 4)
			p.Wait(r)
			p.Wait(r)
		} else {
			p.Recv(0, 0, nil)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestForeignRequestPanics(t *testing.T) {
	// Note: ranks must not synchronise with each other outside the runtime
	// (the scheduler resumes one rank coroutine at a time, and each must
	// reach its next operation on its own), so we forge a request with a
	// foreign owner instead of smuggling a real one across ranks.
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Wait(&Request{owner: 0, bound: true})
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := testConfig(8)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 31415
	program := func(p *Proc) error {
		// An irregular all-to-one-ish exchange with mixed tags.
		if p.Rank() == 0 {
			var rs []*Request
			for src := 1; src < p.Size(); src++ {
				rs = append(rs, p.Irecv(src, src%3, nil))
			}
			p.WaitAll(rs...)
			for dst := 1; dst < p.Size(); dst++ {
				p.Send(dst, 9, nil, 2048)
			}
		} else {
			p.Sleep(float64(p.Rank()) * 1e-6)
			p.Send(0, p.Rank()%3, nil, 1024*p.Rank())
			p.Recv(0, 9, nil)
		}
		p.Barrier()
		return nil
	}
	r1, err := Run(cfg, 8, program)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r2, err := Run(cfg, 8, program)
		if err != nil {
			t.Fatal(err)
		}
		if r2.MakeSpan != r1.MakeSpan {
			t.Fatalf("run %d diverged: %v vs %v", i, r2.MakeSpan, r1.MakeSpan)
		}
		for r := range r1.FinishTimes {
			if r1.FinishTimes[r] != r2.FinishTimes[r] {
				t.Fatalf("rank %d finish diverged", r)
			}
		}
	}
}

func TestRunOnReusesNetwork(t *testing.T) {
	net, err := simnet.New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	prog := func(p *Proc) error {
		if p.Rank() == 0 {
			for d := 1; d < p.Size(); d++ {
				p.Send(d, 0, nil, 4096)
			}
		} else {
			p.Recv(0, 0, nil)
		}
		return nil
	}
	a, err := RunOn(net, 4, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOn(net, 4, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakeSpan != b.MakeSpan {
		t.Fatalf("network reuse changed timing: %v vs %v", a.MakeSpan, b.MakeSpan)
	}
}

func TestSendPortSerialisationVisibleToRanks(t *testing.T) {
	// Root sends to 5 children with non-blocking sends; the last child's
	// receive time must reflect serialisation on the root's send port —
	// the γ(P) effect.
	cfg := testConfig(6)
	const m = 65536
	recvAt := make([]float64, 6)
	_, err := Run(cfg, 6, func(p *Proc) error {
		if p.Rank() == 0 {
			var rs []*Request
			for d := 1; d < 6; d++ {
				rs = append(rs, p.Isend(d, 0, nil, m))
			}
			p.WaitAll(rs...)
		} else {
			p.Recv(0, 0, nil)
			recvAt[p.Rank()] = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p2p := cfg.PointToPointTime(m)
	if recvAt[5] < recvAt[1] {
		t.Fatal("later-targeted child received earlier")
	}
	ratio := recvAt[5] / p2p
	if ratio < 2 {
		t.Fatalf("no serialisation visible: last/first = %v", ratio)
	}
}

func TestManyRanksStress(t *testing.T) {
	// A 64-rank ring with payload verification.
	const n = 64
	cfg := testConfig(n)
	_, err := Run(cfg, n, func(p *Proc) error {
		next := (p.Rank() + 1) % n
		prev := (p.Rank() - 1 + n) % n
		token := []byte{byte(p.Rank())}
		buf := make([]byte, 1)
		if p.Rank() == 0 {
			p.Send(next, 0, token, -1)
			p.Recv(prev, 0, buf)
		} else {
			p.Recv(prev, 0, buf)
			p.Send(next, 0, token, -1)
		}
		if int(buf[0]) != prev {
			return fmt.Errorf("rank %d got token %d, want %d", p.Rank(), buf[0], prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestBytesReportsSize(t *testing.T) {
	_, err := Run(testConfig(2), 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 777)
		} else {
			r := p.Irecv(0, 0, nil)
			p.Wait(r)
			if r.Bytes() != 777 {
				return fmt.Errorf("Bytes = %d", r.Bytes())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransfersCounted(t *testing.T) {
	res, err := Run(testConfig(3), 3, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 1)
			p.Send(2, 0, nil, 1)
		} else {
			p.Recv(0, 0, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 2 {
		t.Fatalf("Transfers = %d, want 2", res.Transfers)
	}
}
