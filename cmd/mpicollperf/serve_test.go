package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"mpicollperf/internal/obs"
	"mpicollperf/internal/serve"
)

// startDaemon spins an in-process daemon on a real HTTP listener.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Config{StoreDir: t.TempDir(), Workers: 2, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// TestServeClientCycle drives the full client loop against a live
// daemon: submit → wait → status → select → list.
func TestServeClientCycle(t *testing.T) {
	url := startDaemon(t)

	var idBuf strings.Builder
	err := runServe([]string{"submit", "-server", url, "-profile", "grisou",
		"-nodes", "16", "-procs", "8", "-sizes", "8192,65536,524288",
		"-ops", "gather", "-fast", "-id-only"}, &idBuf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(idBuf.String())
	if !strings.HasPrefix(id, "cal-") {
		t.Fatalf("-id-only printed %q", id)
	}

	var waitBuf strings.Builder
	if err := runServe([]string{"wait", "-server", url, "-id", id, "-timeout", "2m"}, &waitBuf, io.Discard); err != nil {
		t.Fatalf("wait: %v (%s)", err, waitBuf.String())
	}
	if s := waitBuf.String(); !strings.Contains(s, "done") || !strings.Contains(s, "digest=sha256-") {
		t.Fatalf("wait output %q", s)
	}

	var statusBuf strings.Builder
	if err := runServe([]string{"status", "-server", url, "-id", id}, &statusBuf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statusBuf.String(), id+" done") {
		t.Fatalf("status output %q", statusBuf.String())
	}

	for _, sel := range [][]string{
		{"select", "-server", url, "-profile", "grisou", "-p", "16", "-m", "1048576"},
		{"select", "-server", url, "-profile", "grisou", "-op", "gather", "-p", "16", "-m", "8192"},
	} {
		var selBuf strings.Builder
		if err := runServe(sel, &selBuf, io.Discard); err != nil {
			t.Fatalf("%v: %v", sel, err)
		}
		if s := selBuf.String(); !strings.Contains(s, "/") || !strings.Contains(s, "predicted=") {
			t.Fatalf("select output %q", s)
		}
	}

	var listBuf strings.Builder
	if err := runServe([]string{"list", "-server", url}, &listBuf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listBuf.String(), id) {
		t.Fatalf("list output %q", listBuf.String())
	}
}

func TestServeClientErrors(t *testing.T) {
	url := startDaemon(t)
	var out strings.Builder
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"submit", "-server", url}, // missing -profile
		{"submit", "-server", url, "-profile", "g", "-sizes", "x"},           // bad sizes
		{"status", "-server", url},                                           // missing -id
		{"status", "-server", url, "-id", "cal-999"},                         // unknown job
		{"cancel", "-server", url, "-id", "cal-999"},                         // unknown job
		{"wait", "-server", url},                                             // missing -id
		{"select", "-server", url, "-profile", "grisou"},                     // missing -p/-m
		{"select", "-server", url, "-profile", "nope", "-p", "4", "-m", "1"}, // unknown profile
		{"submit", "-server", url, "-profile", "summit"},                     // daemon-side 404
	}
	for _, args := range cases {
		if err := runServe(args, &out, io.Discard); err == nil {
			t.Fatalf("runServe(%v) should fail", args)
		}
	}
	// Daemon errors surface their wire code.
	err := runServe([]string{"select", "-server", url, "-profile", "grisou", "-p", "4", "-m", "1"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not_calibrated") {
		t.Fatalf("uncalibrated select error = %v, want not_calibrated code", err)
	}

	// An empty daemon lists no jobs.
	var listBuf strings.Builder
	if err := runServe([]string{"list", "-server", url}, &listBuf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listBuf.String(), "no calibration jobs") {
		t.Fatalf("list output %q", listBuf.String())
	}
}
