package main

import (
	"os"
	"testing"
)

// A malformed shape from the command line is a one-line error and exit
// status 2, not sim.New's panic. (run registers its flags on the global
// set, so the binary gets one invocation.)
func TestBadShapeExitsTwo(t *testing.T) {
	os.Args = []string{"clocksim", "-n", "4", "-f", "4"}
	if rc := run(); rc != 2 {
		t.Fatalf("run() = %d for n=4 f=4, want 2", rc)
	}
}
