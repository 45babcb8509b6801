package main

// The serve subcommand is a thin client for the mpicollperfd daemon:
// it submits and tracks calibration jobs and runs selection queries
// over the versioned wire API, so the full daemon loop
// (submit → wait → select → cancel) can be driven from scripts — the
// servecheck make target does exactly that.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mpicollperf/internal/serve/wire"
)

const serveUsage = "usage: mpicollperf serve {submit|status|wait|list|cancel|select} -server URL [flags]"

// runServe dispatches the serve client subcommands.
func runServe(args []string, out, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", serveUsage)
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("serve "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:7077", "daemon base URL")
	switch sub {
	case "submit":
		profile := fs.String("profile", "", "platform profile to calibrate (required)")
		nodes := fs.Int("nodes", 0, "restrict the platform to this many nodes")
		procs := fs.Int("procs", 0, "experiment process count (0 = half the platform)")
		sizes := fs.String("sizes", "", "comma-separated message sizes (empty = paper grid)")
		ops := fs.String("ops", "", "comma-separated extended collective families to calibrate too")
		fast := fs.Bool("fast", false, "quick low-repetition measurement settings")
		idOnly := fs.Bool("id-only", false, "print only the job ID (for scripting)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *profile == "" {
			return fmt.Errorf("serve submit: -profile is required")
		}
		req := wire.CalibrationRequest{
			Version: wire.Version, Profile: *profile, Nodes: *nodes, Procs: *procs, Fast: *fast,
		}
		var err error
		if req.Sizes, err = parseIntList(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		if *ops != "" {
			req.Ops = strings.Split(*ops, ",")
		}
		var job wire.Job
		if err := serveCall(http.MethodPost, *server+"/v1/calibrations", &req, &job); err != nil {
			return err
		}
		if *idOnly {
			fmt.Fprintln(out, job.ID)
			return nil
		}
		fmt.Fprintf(out, "submitted %s\n", formatJob(job))
		return nil

	case "status", "cancel":
		id := fs.String("id", "", "job ID (required)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("serve %s: -id is required", sub)
		}
		method := http.MethodGet
		if sub == "cancel" {
			method = http.MethodDelete
		}
		var job wire.Job
		if err := serveCall(method, *server+"/v1/calibrations/"+*id, nil, &job); err != nil {
			return err
		}
		fmt.Fprintln(out, formatJob(job))
		return nil

	case "wait":
		id := fs.String("id", "", "job ID (required)")
		want := fs.String("want", string(wire.JobDone), "terminal state to wait for")
		timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
		poll := fs.Duration("poll", 200*time.Millisecond, "poll interval")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("serve wait: -id is required")
		}
		deadline := time.Now().Add(*timeout)
		for {
			var job wire.Job
			if err := serveCall(http.MethodGet, *server+"/v1/calibrations/"+*id, nil, &job); err != nil {
				return err
			}
			switch job.State {
			case wire.JobDone, wire.JobFailed, wire.JobCancelled:
				fmt.Fprintln(out, formatJob(job))
				if string(job.State) != *want {
					return fmt.Errorf("job %s ended %s, wanted %s", job.ID, job.State, *want)
				}
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still %s after %v", job.ID, job.State, *timeout)
			}
			time.Sleep(*poll)
		}

	case "list":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var list wire.JobList
		if err := serveCall(http.MethodGet, *server+"/v1/calibrations", nil, &list); err != nil {
			return err
		}
		if len(list.Jobs) == 0 {
			fmt.Fprintln(out, "no calibration jobs")
			return nil
		}
		for _, job := range list.Jobs {
			fmt.Fprintln(out, formatJob(job))
		}
		return nil

	case "select":
		profile := fs.String("profile", "", "profile name or calibration digest (required)")
		op := fs.String("op", "", "collective family (default bcast)")
		p := fs.Int("p", 0, "communicator size (required)")
		m := fs.Int("m", 0, "message size in bytes (required)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *profile == "" || *p < 1 || *m < 0 {
			return fmt.Errorf("serve select: need -profile, -p >= 1, -m >= 0")
		}
		req := wire.SelectRequest{Version: wire.Version, Profile: *profile, Op: *op, P: *p, M: *m}
		var resp wire.SelectResponse
		if err := serveCall(http.MethodPost, *server+"/v1/select", &req, &resp); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s seg=%d predicted=%.3es (profile %s, P=%d, m=%d)\n",
			resp.Algorithm, resp.SegSize, resp.Predicted, resp.Profile, *p, *m)
		return nil

	default:
		return fmt.Errorf("serve: unknown subcommand %q\n%s", sub, serveUsage)
	}
}

// serveCall performs one wire API call, decoding success into v and
// daemon errors into a readable failure.
func serveCall(method, url string, body, v any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e wire.Error
		if json.Unmarshal(data, &e) == nil && e.Code != "" {
			return fmt.Errorf("daemon: %s: %s", e.Code, e.Message)
		}
		return fmt.Errorf("daemon: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

func formatJob(j wire.Job) string {
	s := fmt.Sprintf("%s %s profile=%s progress=%d/%d", j.ID, j.State, j.Profile, j.Done, j.Total)
	if j.Digest != "" {
		s += " digest=" + j.Digest
	}
	if j.Error != "" {
		s += " error=" + strconv.Quote(j.Error)
	}
	return s
}
