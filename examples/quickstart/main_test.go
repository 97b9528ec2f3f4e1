package main

import "testing"

// TestRun runs the tour; run fails on a lost write or a visible rollback.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
