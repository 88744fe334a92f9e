package homelab

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites testdata/reports.golden from the current labs:
//
//	go test ./internal/homelab -run TestScenarioReportsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/reports.golden")

// TestScenarioReportsGolden pins the full detector report of every
// scenario lab — probe strings, RTTs, bogon results and verdict — not
// just the verdict, so a change to how a scenario's home is built
// shows up as a readable diff.
func TestScenarioReportsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range AllScenarios {
		fmt.Fprintf(&b, "=== %s ===\n%s\n", s, New(s).Detector().Run())
	}
	path := filepath.Join("testdata", "reports.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("reports differ from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
