package main

import "testing"

// TestRun mounts all four attacks; run fails unless each is detected.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
