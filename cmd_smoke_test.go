package dnsloc_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd executes one of the repository's commands via `go run` and
// returns combined output. These are end-to-end CLI smoke tests: flags
// parse, worlds build, output renders.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIDnslocSimXB6(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile binaries; skipped in -short mode")
	}
	out, err := runCmd(t, "./cmd/dnsloc", "-sim", "xb6")
	// Interception detected -> exit code 1, which `go run` surfaces.
	if err == nil {
		t.Errorf("expected nonzero exit for an intercepted home")
	}
	for _, want := range []string{"intercepted by CPE", "dnsmasq-2.78", "NON-STANDARD"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIDnslocList(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := runCmd(t, "./cmd/dnsloc", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"xb6", "isp-middlebox", "cpe-chaos-relay"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario list missing %q", want)
		}
	}
}

func TestCLIPilotstudySmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := runCmd(t, "./cmd/pilotstudy", "-scale", "0.02", "-table", "4")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Table 4", "Cloudflare DNS", "All Intercepted"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIPilotstudySweepFlags: the sweeps stream, so -stream accepts
// them; -adversary runs its own sweep, so pairing it with -faults is a
// usage error (exit 2, which `go run` reports) rather than a silently
// different sweep. So is an explicit -checkpoint-every with nowhere to
// write the checkpoints, and a flag the CLI does not define.
func TestCLIPilotstudySweepFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		args []string
		ok   bool
		want string
	}{
		{[]string{"-stream", "-faults", "-scale", "0.02"}, true, "Resilience sweep"},
		{[]string{"-adversary", "-faults", "-scale", "0.02"}, false, "exit status 2"},
		{[]string{"-stream", "-checkpoint-every", "50", "-scale", "0.02"}, false, "-checkpoint-every requires -checkpoint-dir"},
		{[]string{"-lanes", "2", "-scale", "0.02"}, false, "flag provided but not defined: -lanes"},
	} {
		out, err := runCmd(t, append([]string{"./cmd/pilotstudy"}, c.args...)...)
		if (err == nil) != c.ok || !strings.Contains(out, c.want) {
			t.Errorf("pilotstudy %v: err=%v, want success=%t and %q in:\n%s", c.args, err, c.ok, c.want, out)
		}
	}
}

func TestCLIDnsmonSimRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := runCmd(t, "./cmd/dnsmon", "-sim", "pihole", "-count", "2", "-interval", "0")
	if err == nil {
		t.Error("expected exit 1 after observing interception")
	}
	if strings.Count(out, "round=") != 2 {
		t.Errorf("rounds:\n%s", out)
	}
	if !strings.Contains(out, "dnsmasq-pi-hole") {
		t.Errorf("fingerprint missing:\n%s", out)
	}
}

// TestCLIXB6Lab pins the case study's whole packet capture byte for
// byte: every DNAT, SNAT and conntrack rewrite on the path shows in it,
// as each trace point saw the packet. Regenerate the golden with
//
//	go run ./cmd/xb6lab > testdata/xb6lab.golden
//
// only for a change that means to move the capture.
func TestCLIXB6Lab(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/xb6lab")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "xb6lab.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) == string(want) {
		return
	}
	got, exp := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("capture differs from testdata/xb6lab.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
