package main

import (
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The calibration itself is exercised end to end elsewhere (core tests,
// the reproduce integration test); these tests cover the flag surface,
// which must reject bad inputs before any measuring starts, and the key
// lines of select and decision over a saved calibration.

func TestRejectsUnknownCluster(t *testing.T) {
	if err := runCalibrate([]string{"-cluster", "nonesuch"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

// TestCalibrateProfileFlagValidation: an unwritable profile path must fail
// before any calibration runs.
func TestCalibrateProfileFlagValidation(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")
	if err := runCalibrate([]string{"-memprofile", bad}, io.Discard, io.Discard); err == nil {
		t.Fatal("unwritable -memprofile path accepted")
	}
}

// savedCalibration calibrates Grisou on 16 processes and returns the path
// of the saved calibration.
func savedCalibration(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grisou.json")
	var out strings.Builder
	if err := runCalibrate([]string{"-procs", "16", "-workers", "1", "-save", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "calibration written to "+path) {
		t.Fatalf("calibrate output:\n%s", out.String())
	}
	return path
}

// TestSelectPicks: at P=90, m=1 MB the models prefer the binary tree while
// Open MPI's fixed rules pick the chain.
func TestSelectPicks(t *testing.T) {
	var out strings.Builder
	err := run([]string{"select", "-cal", savedCalibration(t), "-np", "90", "-m", "1048576"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cluster=grisou P=90 m=1048576 B\n",
		"model-based selection: binary/8KB\n",
		"open mpi 3.1 decision: chain/8KB\n",
		"\n1     binary ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("select output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"select", "-np", "1", "-m", "8"}, io.Discard, io.Discard); err == nil {
		t.Error("-np 1 accepted")
	}
}

// TestDecisionRows: the human-readable table has one row per power-of-two
// communicator size up to the platform, each closed by an otherwise rule.
func TestDecisionRows(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"decision", "-cal", savedCalibration(t)}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "compiled decision table for grisou (segment 8192 B)\n") {
		t.Fatalf("decision header:\n%s", got)
	}
	var rows []string
	for _, m := range regexp.MustCompile(`(?m)^  P <= (\d+):$`).FindAllStringSubmatch(got, -1) {
		rows = append(rows, m[1])
	}
	if want := "2 4 8 16 32 64 90"; strings.Join(rows, " ") != want {
		t.Errorf("rows P <= %v, want %s", rows, want)
	}
	if n := strings.Count(got, "    otherwise       -> "); n != len(rows) {
		t.Errorf("%d otherwise rules for %d rows:\n%s", n, len(rows), got)
	}
}
