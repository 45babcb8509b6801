package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpicollperf"
	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/serve"
	"mpicollperf/internal/serve/wire"
)

const (
	// phaseA is how long each daemon_mixed iteration sends select
	// traffic alone before submitting its calibration job.
	phaseA = 500 * time.Millisecond
	// pollEvery is the job poller's interval; it bounds job_s resolution.
	pollEvery = 5 * time.Millisecond
	// setupPasses is how many times daemon_mixed sets up a daemon.
	setupPasses = 3
)

// fastSettings are the measurement settings the daemon applies to a
// request with "fast": true. The in-process references use them to
// reproduce the daemon's calibrations, so a change to the daemon's
// settings shows as failed checks.
var fastSettings = experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}

// setupRequest is the calibration every daemon_mixed daemon starts with:
// Gros with every collective family, so the select traffic can ask
// about all of them.
func setupRequest() wire.CalibrationRequest {
	return wire.CalibrationRequest{Version: wire.Version, Profile: "gros", Procs: 16,
		Ops: mpicollperf.Collectives(), Fast: true}
}

// jobRequest is the calibration each iteration's phase B submits.
func jobRequest() wire.CalibrationRequest {
	return wire.CalibrationRequest{Version: wire.Version, Profile: "grisou", Nodes: 32, Procs: 16,
		Ops: []string{"allreduce", "reduce"}, Fast: true}
}

// calibrateRequest calibrates a daemon request in-process exactly as the
// daemon's job runner does, returning the selector and the store digest
// the daemon publishes it under.
func calibrateRequest(ctx context.Context, req wire.CalibrationRequest) (*core.Selector, string, error) {
	pr, err := cluster.ByName(req.Profile)
	if err != nil {
		return nil, "", err
	}
	if req.Nodes > 0 {
		if pr, err = pr.WithNodes(req.Nodes); err != nil {
			return nil, "", err
		}
	}
	cfg := estimate.AlphaBetaConfig{Procs: req.Procs, Sizes: req.Sizes}
	if req.Fast {
		cfg.Settings = fastSettings
	}
	sel, err := core.CalibrateCtx(ctx, pr, cfg)
	if err != nil {
		return nil, "", err
	}
	for _, op := range req.Ops {
		if err := sel.CalibrateExtendedOp(ctx, op, cfg); err != nil {
			return nil, "", err
		}
	}
	return sel, serve.ProfileDigest(pr), nil
}

// selectCase is one select request with the exact response body the
// daemon must return.
type selectCase struct {
	body, want []byte
}

// selectCases renders queries against sel as wire requests naming
// profile, with their expected responses.
func selectCases(sel *core.Selector, profile string, qs []query) ([]selectCase, error) {
	cases := make([]selectCase, len(qs))
	for i, q := range qs {
		c, err := sel.BestFor(q.op, q.P, q.m)
		if err != nil {
			return nil, fmt.Errorf("select %+v: %w", q, err)
		}
		body, err := json.Marshal(wire.SelectRequest{Version: wire.Version, Profile: profile, Op: q.op, P: q.P, M: q.m})
		if err != nil {
			return nil, err
		}
		want := wire.AppendSelectResponse(nil, &wire.SelectResponse{Version: wire.Version, Profile: profile,
			Op: c.Op, Algorithm: c.Algorithm, SegSize: c.SegSize, Predicted: c.Predicted})
		cases[i] = selectCase{body: body, want: want}
	}
	return cases, nil
}

// daemon is a running mpicollperfd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startDaemon starts mpicollperfd on an ephemeral loopback port with its
// store and log under dir, and waits until /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-store", filepath.Join(dir, "store"), "-workers", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.base = "http://" + strings.TrimSpace(string(addr))
			break
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("mpicollperfd exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mpicollperfd did not report its address within 30s")
		}
	}
	c := newClient(d.base)
	defer c.close()
	status, body, err := c.do(http.MethodGet, "/healthz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz: status %d: %s", status, body)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the daemon down gracefully (SIGTERM drains it) and waits
// for it to exit, killing it if the drain takes over 30 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-d.exited
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("mpicollperfd did not drain within 30s; killed")
	}
}

// client is one keep-alive HTTP connection to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}}
}

// do sends one request and returns the status and the response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// selectConn is the select client's one keep-alive connection. It
// speaks HTTP/1.1 directly over TCP: one pre-rendered request out, one
// response read by its Content-Length, so the client adds as little
// time and jitter as possible to what it measures.
type selectConn struct {
	conn net.Conn
	r    *bufio.Reader
	head []byte // request line and headers up to Content-Length's value
	buf  []byte
}

func dialSelect(base string) (*selectConn, error) {
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	head := []byte("POST /v1/select HTTP/1.1\r\nHost: " + host + "\r\nContent-Type: application/json\r\nContent-Length: ")
	return &selectConn{conn: conn, r: bufio.NewReader(conn), head: head}, nil
}

func (c *selectConn) close() { c.conn.Close() }

// post sends one select request body and returns the status and the
// response body, which stays valid until the next post.
func (c *selectConn) post(body []byte) (int, []byte, error) {
	c.buf = append(c.buf[:0], c.head...)
	c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, body...)
	if _, err := c.conn.Write(c.buf); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && strings.EqualFold(string(k), "Content-Length") {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("select response without Content-Length")
	}
	if cap(c.buf) < length {
		c.buf = make([]byte, length)
	}
	c.buf = c.buf[:length]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return 0, nil, err
	}
	return status, c.buf, nil
}

// selectOnce sends one select and checks the status and body.
func (c *selectConn) selectOnce(sc selectCase) error {
	status, body, err := c.post(sc.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("select %s: status %d: %s", sc.body, status, body)
	}
	if !bytes.Equal(body, sc.want) {
		return fmt.Errorf("select %s: got %s, want %s", sc.body, body, sc.want)
	}
	return nil
}

// selectUntil is the closed-loop select client: it sends the cases
// round-robin, one at a time, until stop reports true, timing each
// request in microseconds.
func (c *selectConn) selectUntil(cases []selectCase, stop func() bool) (lat []float64, wrong int, first error) {
	for i := 0; !stop(); i++ {
		t := time.Now()
		err := c.selectOnce(cases[i%len(cases)])
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	return lat, wrong, first
}

// jobRun is the outcome of one submitted and polled calibration job.
type jobRun struct {
	seconds float64
	job     wire.Job
	err     error
}

// runJob submits req and polls its status until it leaves the queued
// and running states; seconds runs from the submit to the poll that saw
// the final state.
func (c *client) runJob(req wire.CalibrationRequest) jobRun {
	body, err := json.Marshal(req)
	if err != nil {
		return jobRun{err: err}
	}
	t := time.Now()
	status, out, err := c.do(http.MethodPost, "/v1/calibrations", body)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, out)
	}
	var job wire.Job
	if err == nil {
		err = json.Unmarshal(out, &job)
	}
	for err == nil && (job.State == wire.JobQueued || job.State == wire.JobRunning) {
		time.Sleep(pollEvery)
		status, out, err = c.do(http.MethodGet, "/v1/calibrations/"+job.ID, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll %s: status %d: %s", job.ID, status, out)
		}
		if err == nil {
			err = json.Unmarshal(out, &job)
		}
	}
	r := jobRun{seconds: time.Since(t).Seconds(), job: job, err: err}
	if err == nil && job.State != wire.JobDone {
		r.err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	return r
}

// daemonRefs are the in-process references daemon_mixed checks against.
type daemonRefs struct {
	setup     *core.Selector
	traffic   []selectCase // select traffic against the set-up calibration
	job       *core.Selector
	jobDigest string
	jobCases  []selectCase // post-job checks against the job's calibration
	queries   []query
}

func buildDaemonRefs(ctx context.Context, cfg config) (*daemonRefs, error) {
	setup, _, err := calibrateRequest(ctx, setupRequest())
	if err != nil {
		return nil, fmt.Errorf("reference set-up calibration: %w", err)
	}
	job, digest, err := calibrateRequest(ctx, jobRequest())
	if err != nil {
		return nil, fmt.Errorf("reference job calibration: %w", err)
	}
	ops := append([]string{core.OpBcast}, mpicollperf.Collectives()...)
	r := &daemonRefs{setup: setup, job: job, jobDigest: digest}
	r.queries = genQueries(cfg.seed, 2048, ops, []int{setup.Profile.Nodes})
	if r.traffic, err = selectCases(setup, "gros", r.queries); err != nil {
		return nil, err
	}
	var jq []query
	for _, op := range []string{core.OpBcast, "allreduce", "reduce"} {
		jq = append(jq, query{op: op, P: 16, m: 1 << 20}, query{op: op, P: 32, m: 8 << 10})
	}
	if r.jobCases, err = selectCases(job, digest, jq); err != nil {
		return nil, err
	}
	if cfg.hooks.corrupt {
		for _, cs := range [][]selectCase{r.traffic, r.jobCases} {
			cs[0].want = append([]byte(nil), cs[0].want...)
			cs[0].want[len(cs[0].want)-2]++
		}
	}
	return r, nil
}

// setUpDaemon starts a daemon, runs the set-up calibration job on it and
// checks one select against the reference.
func setUpDaemon(cfg config, dir string, refs *daemonRefs) (*daemon, error) {
	d, err := startDaemon(cfg.daemon, dir)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.close()
	err = c.runJob(setupRequest()).err
	if err == nil {
		var sc *selectConn
		if sc, err = dialSelect(d.base); err == nil {
			err = sc.selectOnce(refs.traffic[0])
			sc.close()
		}
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon set-up: %w", err)
	}
	return d, nil
}

// runDaemonMixed is the daemon_mixed workload: an mpicollperfd child on
// loopback under a closed-loop select client on one connection. Each
// iteration sends select traffic alone (phase A), then the same traffic
// while one calibration job runs (phase B), polled on a second
// connection until done.
func runDaemonMixed(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	refs, err := buildDaemonRefs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workdir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set-up: start a daemon and calibrate it, three times; set-up time
	// is the median and the last daemon serves the timed loop.
	var d *daemon
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		t := time.Now()
		d, err = setUpDaemon(cfg, filepath.Join(work, fmt.Sprint("d", i)), refs)
		rep.op(err)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupPasses-1 {
			rep.op(d.stop())
		}
	}
	// The daemon must drain and exit cleanly; the stop counts as one more
	// operation of the report main prints after this returns.
	defer func() { rep.op(d.stop()) }()
	rep.e2e["setup_s"] = metric{median(setups), "s"}

	sel, err := dialSelect(d.base)
	if err != nil {
		return nil, err
	}
	defer sel.close()
	poll := newClient(d.base)
	defer poll.close()

	degr, err := daemonDegradation(ctx, sel, refs)
	if err != nil {
		return nil, err
	}
	rep.e2e["selection_degradation_pct"] = metric{degr, "%"}

	var idle, busy phaseStats
	var jobs []float64
	rss := &rssMeter{pid: strconv.Itoa(d.cmd.Process.Pid)}
	samples, err := timedLoop(cfg.seconds, minIters, rss, func() error {
		t := time.Now()
		lat, wrong, first := sel.selectUntil(refs.traffic, func() bool { return time.Since(t) >= phaseA })
		idle.add(lat, time.Since(t).Seconds())
		rep.count(len(lat), wrong, first)

		done := make(chan jobRun, 1)
		go func() { done <- poll.runJob(jobRequest()) }()
		var jr jobRun
		finished := false
		lat, wrong, first = sel.selectUntil(refs.traffic, func() bool {
			select {
			case jr = <-done:
				finished = true
			default:
			}
			return finished
		})
		busy.add(lat, 0)
		rep.count(len(lat), wrong, first)

		if jr.err == nil && jr.job.Digest != refs.jobDigest {
			jr.err = fmt.Errorf("job %s published digest %s, want %s", jr.job.ID, jr.job.Digest, refs.jobDigest)
		}
		rep.op(jr.err)
		jobs = append(jobs, jr.seconds)
		for _, sc := range refs.jobCases {
			rep.op(sel.selectOnce(sc))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	setSelectMetrics(rep, &idle)
	noteTail(rep, "select busy", &busy)
	calibSummary(rep, jobs)
	rep.e2e["peak_rss_mb"] = metric{median(rss.samples), "MB"}
	rep.note("daemon_mixed: %d iterations", len(samples))

	if cfg.trace {
		if err := traceDaemon(rep, cfg, refs); err != nil {
			return nil, err
		}
	}
	fillLayerDefaults(rep)
	return rep, nil
}

// daemonDegradation is the mean percentage by which the daemon's served
// broadcast pick on Gros is slower than the measured oracle, over a
// fixed (P, m) grid.
func daemonDegradation(ctx context.Context, c *selectConn, refs *daemonRefs) (float64, error) {
	pr := refs.setup.Profile
	sw := experiment.Sweep{Profile: pr, Settings: experiment.DefaultSettings()}
	var sum float64
	var n int
	for _, P := range []int{16, 64} {
		for _, m := range []int{16 << 10, 256 << 10, 4 << 20} {
			body, _ := json.Marshal(wire.SelectRequest{Version: wire.Version, Profile: "gros", Op: core.OpBcast, P: P, M: m})
			status, out, err := c.post(body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("select: status %d: %s", status, out)
			}
			var resp wire.SelectResponse
			if err == nil {
				err = json.Unmarshal(out, &resp)
			}
			if err != nil {
				return 0, err
			}
			alg, err := coll.ParseBcastAlgorithm(strings.TrimPrefix(resp.Algorithm, core.OpBcast+"/"))
			if err != nil {
				return 0, err
			}
			o, err := selection.OracleSweep(ctx, sw, P, m)
			if err != nil {
				return 0, err
			}
			sum += selection.Degradation(o.Times[alg], o.BestTime())
			n++
		}
	}
	return sum / float64(n), nil
}

// captureWriter is a reusable in-process http.ResponseWriter that keeps
// the status and body.
type captureWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *captureWriter) Header() http.Header { return w.h }
func (w *captureWriter) WriteHeader(s int)   { w.status = s }
func (w *captureWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// replayBody is a rewindable request body.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// inProcessJob submits req to srv through ServeHTTP and polls its status
// every pollEvery until it finishes, returning the elapsed seconds and
// the number of polls.
func inProcessJob(srv *serve.Server, req wire.CalibrationRequest) (float64, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/calibrations", bytes.NewReader(body)))
	var job wire.Job
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		return 0, 0, fmt.Errorf("in-process submit: %w (%s)", err, w.Body.Bytes())
	}
	polls := 0
	for job.State == wire.JobQueued || job.State == wire.JobRunning {
		time.Sleep(pollEvery)
		polls++
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/calibrations/"+job.ID, nil))
		if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
			return 0, 0, err
		}
	}
	if job.State != wire.JobDone {
		return 0, 0, fmt.Errorf("in-process job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	return time.Since(t).Seconds(), polls, nil
}

// rounds is how many passes over the query mix the traced micro-timings
// make; each metric is the median over the passes.
const rounds = 25

// perCall times fn over n items in rounds passes and returns the median
// per-call time in nanoseconds.
func perCall(n int, fn func(i int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// traceDaemon is daemon_mixed's traced run, in-process: Selector.BestFor
// timed call by call, then the serve layer (traceServe).
func traceDaemon(rep *report, cfg config, refs *daemonRefs) error {
	// Selector.BestFor, untimed per call and timed per call; the
	// difference is the cost of the per-call timing itself.
	qs := refs.queries
	bestFor := func(i int) {
		q := qs[i%len(qs)]
		if _, err := refs.setup.BestFor(q.op, q.P, q.m); err != nil {
			panic(err) // answered in set-up already
		}
	}
	plain := perCall(len(qs), bestFor)
	timed := perCall(len(qs), func(i int) {
		t := time.Now()
		bestFor(i)
		_ = time.Since(t)
	})
	rep.layer["core.best_for_ns"] = metric{plain, "ns"}
	rep.layer["trace.overhead_pct"] = metric{(timed/plain - 1) * 100, "%"}

	st, err := traceServe(rep, cfg, refs)
	if err != nil {
		return err
	}
	rep.layer["trace.layer_share"] = metric{st.handlerUS / rep.e2e["select_p50_us"].Value, "ratio"}
	rep.layer["go.alloc_mb"] = metric{st.jobAllocMB, "MB"}
	rep.layer["go.gc_cycles"] = metric{st.jobGCs, "count"}
	points := st.jobReg.Counter(cMeasured).Value()
	classes := st.jobReg.Counter(cTemplates).Value()
	rebinds := st.jobReg.Counter(cRebinds).Value()
	rep.layer["experiment.points"] = metric{float64(points), "count"}
	rep.layer["experiment.classes"] = metric{float64(classes), "count"}
	rep.layer["experiment.rebinds"] = metric{float64(rebinds), "count"}
	rep.layer["experiment.rebind_ratio"] = metric{ratio(int(rebinds), int(points-classes)), "ratio"}
	mpiCounts(rep, st.jobReg)
	return nil
}

// serveTrace is what traceServe measured beyond the serve.* metrics it
// reports itself.
type serveTrace struct {
	handlerUS          float64       // per select request, in process
	jobReg             *obs.Registry // the in-process job's counters
	jobAllocMB, jobGCs float64       // the in-process job's Go heap work
}

// traceServe measures the serve layer in process, against a server of
// its own: the wire codec, the select handler through ServeHTTP (every
// response checked), the phase-B job through an in-process job manager,
// and Store.Put.
func traceServe(rep *report, cfg config, refs *daemonRefs) (serveTrace, error) {
	var st serveTrace
	work, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(work)
	srv, err := serve.New(serve.Config{StoreDir: filepath.Join(work, "store"), Workers: 1})
	if err != nil {
		return st, err
	}
	defer srv.Close()
	if _, _, err := inProcessJob(srv, setupRequest()); err != nil {
		return st, err
	}

	var v wire.SelectRequestView
	rep.layer["serve.wire_parse_ns"] = metric{perCall(len(refs.traffic), func(i int) {
		if err := wire.ParseSelectRequest(refs.traffic[i].body, &v); err != nil {
			panic(err) // rendered by json.Marshal in set-up
		}
	}), "ns"}
	resps := make([]wire.SelectResponse, len(refs.traffic))
	for i, sc := range refs.traffic {
		if err := json.Unmarshal(sc.want, &resps[i]); err != nil {
			return st, err
		}
	}
	buf := make([]byte, 0, 512)
	rep.layer["serve.wire_encode_ns"] = metric{perCall(len(resps), func(i int) {
		buf = wire.AppendSelectResponse(buf[:0], &resps[i])
	}), "ns"}

	// The handler: ServeHTTP on a reused writer and request, every
	// response checked.
	w := &captureWriter{h: make(http.Header)}
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/select", nil)
	req.Body = body
	var wrong int
	var first error
	handlerNS := perCall(len(refs.traffic), func(i int) {
		sc := refs.traffic[i]
		body.data, body.off = sc.body, 0
		w.body = w.body[:0]
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK || !bytes.Equal(w.body, sc.want) {
			wrong++
			if first == nil {
				first = fmt.Errorf("in-process select %s: status %d, got %s, want %s", sc.body, w.status, w.body, sc.want)
			}
		}
	})
	rep.count(rounds*len(refs.traffic), wrong, first)
	st.handlerUS = handlerNS / 1e3
	rep.layer["serve.handler_us"] = metric{st.handlerUS, "us"}

	// The phase-B job through an in-process job manager with its own
	// registry, so its counters are this job's alone.
	st.jobReg = obs.NewRegistry()
	jsrv, err := serve.New(serve.Config{StoreDir: filepath.Join(work, "job-store"), Workers: 1, Metrics: st.jobReg})
	if err != nil {
		return st, err
	}
	defer jsrv.Close()
	mem := startMem()
	jobS, polls, err := inProcessJob(jsrv, jobRequest())
	rep.op(err)
	st.jobAllocMB, st.jobGCs = mem.perIter(1)
	rep.layer["serve.job_calibrate_s"] = metric{jobS, "s"}
	rep.layer["serve.poll_requests"] = metric{float64(polls), "count"}

	store, err := serve.NewStore(filepath.Join(work, "put-store"), 8)
	if err != nil {
		return st, err
	}
	var puts []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		err := store.Put(refs.jobDigest, refs.job)
		puts = append(puts, float64(time.Since(t).Nanoseconds())/1e6)
		rep.op(err)
	}
	rep.layer["serve.store_put_ms"] = metric{median(puts), "ms"}
	return st, nil
}
