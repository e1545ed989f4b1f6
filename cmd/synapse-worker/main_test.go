package main

import "testing"

// TestOverloadFlagsValidated: -queue depends on -max-inflight, and neither
// accepts negatives.
func TestOverloadFlagsValidated(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "4"}, // queue without a bound to queue against
		{"-max-inflight", "-1"},
		{"-max-inflight", "4", "-queue", "-2"},
	} {
		if err := run(args, nil); err == nil {
			t.Errorf("run(%v) accepted, want error", args)
		}
	}
}
