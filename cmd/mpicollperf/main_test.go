package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBuildConfigFullScale(t *testing.T) {
	cfg, err := buildConfig("both", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.profiles) != 2 {
		t.Fatalf("profiles = %d", len(cfg.profiles))
	}
	if len(cfg.sizes) != 10 || cfg.sizes[0] != 8192 || cfg.sizes[9] != 4<<20 {
		t.Fatalf("paper size grid wrong: %v", cfg.sizes)
	}
	// The paper's evaluation parameters.
	if cfg.table3P["grisou"] != 90 || cfg.table3P["gros"] != 100 {
		t.Fatalf("table3 process counts: %v", cfg.table3P)
	}
	if cfg.estProcs["grisou"] != 40 || cfg.estProcs["gros"] != 124 {
		t.Fatalf("estimation process counts: %v", cfg.estProcs)
	}
	if got := cfg.fig5Ps["grisou"]; len(got) != 3 || got[2] != 90 {
		t.Fatalf("fig5 grisou P values: %v", got)
	}
}

func TestBuildConfigQuickAndSingleCluster(t *testing.T) {
	cfg, err := buildConfig("gros", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.profiles) != 1 || cfg.profiles[0].Name != "gros" {
		t.Fatalf("profiles = %+v", cfg.profiles)
	}
	if cfg.profiles[0].Nodes != 24 {
		t.Fatalf("quick mode should shrink the cluster, got %d nodes", cfg.profiles[0].Nodes)
	}
	if _, err := buildConfig("fugaku", false); err == nil {
		t.Fatal("unknown cluster should fail")
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Fatal("no args should fail")
	}
	if err := run([]string{"frobnicate"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if err := run([]string{"reproduce", "-quick", "-cluster", "grisou", "nosuch"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown target should fail")
	}
}

// TestUnknownSubcommandListsCommands: the usage error names every
// subcommand, so the one binary is discoverable from any mistake.
func TestUnknownSubcommandListsCommands(t *testing.T) {
	err := run([]string{"frobnicate"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	for _, name := range []string{"calibrate", "select", "decision", "analyze", "sweep", "reproduce", "verify-guidelines", "serve"} {
		if !strings.Contains(err.Error(), "\n  "+name+" ") {
			t.Errorf("usage does not list %q:\n%v", name, err)
		}
	}
	var out strings.Builder
	if err := run([]string{"-h"}, &out, io.Discard); err != nil || !strings.Contains(out.String(), "verify-guidelines") {
		t.Errorf("-h: %v\n%s", err, out.String())
	}
}

func TestRunQuickTable1WritesCSV(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"reproduce", "-quick", "-cluster", "grisou", "-out", dir, "table1"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "cluster,P,gamma\n") || !strings.Contains(text, "grisou,7,") {
		t.Fatalf("table1 csv:\n%s", text)
	}
}
