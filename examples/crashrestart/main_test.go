package main

import "testing"

// TestRun crash-restarts every node; run fails if a committed key is lost.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
