package main

import "testing"

// TestRun runs the demo at a tiny size; run fails if the total changed.
func TestRun(t *testing.T) {
	if err := run(10, 2, 5); err != nil {
		t.Fatal(err)
	}
}
