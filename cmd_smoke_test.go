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

// TestCLIPilotstudySweepFlags: -adversary runs its own sweep, so
// pairing it with -faults is a usage error (exit 2, which `go run`
// reports) rather than a silently different sweep. So is an explicit
// -checkpoint-every with nowhere to write the checkpoints, -json or
// -ext next to a sweep (they read a single run's records), an -ext
// experiment that does not exist, and a flag the CLI does not define:
// -lanes went with the lane axis, -stream with the in-memory pipeline.
func TestCLIPilotstudySweepFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	jsonPath := filepath.Join(t.TempDir(), "sweep.json")
	for _, c := range []struct {
		args []string
		ok   bool
		want []string
	}{
		{[]string{"-faults", "-scale", "0.02"}, true, []string{"Resilience sweep"}},
		{[]string{"-adversary", "-faults", "-scale", "0.02"}, false, []string{"exit status 2"}},
		{[]string{"-checkpoint-every", "50", "-scale", "0.02"}, false, []string{"-checkpoint-every requires -checkpoint-dir"}},
		{[]string{"-lanes", "2", "-scale", "0.02"}, false, []string{"flag provided but not defined: -lanes"}},
		{[]string{"-stream", "-scale", "0.02"}, false, []string{"flag provided but not defined: -stream", "exit status 2"}},
		{[]string{"-ext", "foo", "-scale", "0.02", "-table", "4"}, false, []string{`unknown -ext "foo"`, "exit status 2"}},
		{[]string{"-faults", "-json", jsonPath, "-scale", "0.02"}, false, []string{"-json, and -ext apply to single runs", "exit status 2"}},
		{[]string{"-adversary", "-json", jsonPath, "-scale", "0.02"}, false, []string{"-json, and -ext apply to single runs", "exit status 2"}},
		{[]string{"-encryption", "-json", jsonPath, "-scale", "0.02"}, false, []string{"-json, and -ext apply to single runs", "exit status 2"}},
		{[]string{"-faults", "-ext", "population", "-scale", "0.02"}, false, []string{"-json, and -ext apply to single runs", "exit status 2"}},
		{[]string{"-adversary", "-ext", "patterns", "-scale", "0.02"}, false, []string{"-json, and -ext apply to single runs", "exit status 2"}},
		{[]string{"-encryption", "-ext", "ttl", "-scale", "0.02"}, false, []string{"-json, and -ext apply to single runs", "exit status 2"}},
	} {
		out, err := runCmd(t, append([]string{"./cmd/pilotstudy"}, c.args...)...)
		if (err == nil) != c.ok {
			t.Errorf("pilotstudy %v: err=%v, want success=%t:\n%s", c.args, err, c.ok, out)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("pilotstudy %v: want %q in:\n%s", c.args, want, out)
			}
		}
	}
	if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
		t.Errorf("a refused sweep wrote %s", jsonPath)
	}
}

// TestCLIPilotstudyResumeRecordOutputs: -json and -ext read the run's
// record files, which a checkpointed run keeps beside its checkpoints,
// so a run stopped by -stop-after and resumed writes the same JSON
// document and population table as an uninterrupted run.
func TestCLIPilotstudyResumeRecordOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pilotstudy")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pilotstudy").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var stderr strings.Builder
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-scale", "0.1", "-workers", "2", "-table", "4", "-ext", "population"}, args...)...)
		stderr.Reset()
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("pilotstudy %v: %v\n%s", args, err, stderr.String())
		}
		return string(out)
	}
	want := run("-json", filepath.Join(dir, "full.json"))
	ckpt, resumed := filepath.Join(dir, "ckpt"), filepath.Join(dir, "resumed.json")
	if out := run("-checkpoint-dir", ckpt, "-checkpoint-every", "50", "-json", resumed, "-stop-after", "220"); out != "" {
		t.Fatalf("a halted run rendered output:\n%s", out)
	}
	if _, err := os.Stat(resumed); !os.IsNotExist(err) {
		t.Fatalf("a halted run wrote %s", resumed)
	}
	if got := run("-checkpoint-dir", ckpt, "-checkpoint-every", "50", "-resume", "-json", resumed); got != want {
		t.Errorf("resumed run renders\n%s\nuninterrupted run renders\n%s", got, want)
	}
	if !strings.Contains(stderr.String(), "(400 resumed from checkpoint)") {
		t.Errorf("the resumed run did not resume 2 shards at their 200-record checkpoints:\n%s", stderr.String())
	}
	a, errA := os.ReadFile(filepath.Join(dir, "full.json"))
	b, errB := os.ReadFile(resumed)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !strings.Contains(want, "Probe population by country") || len(a) == 0 || string(a) != string(b) {
		t.Errorf("resumed JSON (%d bytes) differs from the uninterrupted run's (%d bytes)", len(b), len(a))
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
