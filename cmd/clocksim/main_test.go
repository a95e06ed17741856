package main

import (
	"strings"
	"testing"
)

// A malformed shape, an empty run or an unknown name from the command
// line is a one-line error and exit status 2, not sim.New's panic or a
// NaN per-node-beat rate.
func TestBadShapeExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "4", "-f", "4"},
		{"-n", "0", "-f", "0"},
		{"-f", "-1"},
		{"-k", "0"},
		{"-beats", "0"},
		{"-beats", "-3"},
		{"-proto", "nope"},
		{"-coin", "nope"},
		{"-adv", "nope"},
		{"-layout", "nope"},
		{"-no-such-flag"},
	} {
		if rc := run(args); rc != 2 {
			t.Errorf("run(%s) = %d, want 2", strings.Join(args, " "), rc)
		}
	}
	if rc := run([]string{"-n", "4", "-f", "1", "-beats", "1", "-quiet"}); rc != 0 {
		t.Fatalf("run on the smallest good shape = %d, want 0", rc)
	}
}
