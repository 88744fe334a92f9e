package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownScenarioExits2 runs the command in a child process with a
// misspelt -sim: it must exit 2 with a one-line message, not panic.
func TestUnknownScenarioExits2(t *testing.T) {
	if os.Getenv("DNSMON_RUN_MAIN") == "1" {
		os.Args = []string{"dnsmon", "-sim", "nonsense"}
		flag.CommandLine = flag.NewFlagSet("dnsmon", flag.ExitOnError)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownScenarioExits2$")
	cmd.Env = append(os.Environ(), "DNSMON_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if want := "dnsmon: unknown -sim scenario \"nonsense\"\n"; !strings.HasPrefix(string(out), want) {
		t.Errorf("output = %q, want prefix %q", out, want)
	}
}
