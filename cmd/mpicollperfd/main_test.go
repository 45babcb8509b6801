package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, exercises
// an endpoint over real TCP, then shuts it down via the signal path.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-store", filepath.Join(dir, "store"),
		}, stop, &out)
	}()

	// Wait for the daemon to publish its bound address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// An uncalibrated select reports not_calibrated over the wire.
	resp, err = http.Post("http://"+addr+"/v1/select", "application/json",
		strings.NewReader(`{"profile":"grisou","p":4,"m":8192}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uncalibrated select: %d", resp.StatusCode)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "listening on") || !strings.Contains(s, "bye") {
		t.Fatalf("daemon output:\n%s", s)
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	stop := make(chan os.Signal)
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, stop, &out); err == nil {
		t.Fatal("bad flag should fail")
	}
	if err := run([]string{"positional"}, stop, &out); err == nil {
		t.Fatal("positional args should fail")
	}
	if err := run([]string{"-addr", "127.0.0.1:notaport", "-store", t.TempDir()}, stop, &out); err == nil {
		t.Fatal("unlistenable address should fail")
	}
}

// TestHTTPServerBoundsSlowClients checks the daemon's server carries
// every connection timeout, so a client that trickles its headers or
// body, or idles on a keep-alive connection, cannot hold it forever;
// and that each bound leaves room for a slow but honest client.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": hs.ReadHeaderTimeout,
		"ReadTimeout":       hs.ReadTimeout,
		"IdleTimeout":       hs.IdleTimeout,
	} {
		if d < time.Second {
			t.Errorf("%s = %v, want a bound of at least a second", name, d)
		}
	}
	if hs.ReadHeaderTimeout > hs.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
}
