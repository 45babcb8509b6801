package main

import (
	"io"
	"strings"
	"testing"
)

// TestAnalyzeChain: a 1 MB chain broadcast over 16 ranks pipelines 128
// segments down a 15-link chain, so the critical path has one hop per
// link.
func TestAnalyzeChain(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"analyze", "-np", "16", "-alg", "chain", "-m", "1048576"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"chain broadcast of 1048576 B over 16 ranks on grisou (segment 8192 B)\n",
		"completion: 0.001995 s\n",
		"critical path (15 hops):\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("analyze output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"analyze", "-np", "91"}, io.Discard, io.Discard); err == nil {
		t.Error("-np beyond the 90-node grisou accepted")
	}
}
