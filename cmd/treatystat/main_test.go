package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunOutputsJSON runs each rendering on a small cluster and requires
// it to decode as a JSON object with the rendering's own top-level field.
func TestRunOutputsJSON(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		key  string
	}{
		{"raw", nil, "node-0"},
		{"shardmap", []string{"-shardmap"}, "slots_by_node"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append([]string{"-txns", "20"}, c.args...), &out); err != nil {
				t.Fatal(err)
			}
			var v map[string]any
			if err := json.Unmarshal(out.Bytes(), &v); err != nil {
				t.Fatalf("output is not JSON: %v\n%s", err, out.String())
			}
			if _, ok := v[c.key]; !ok {
				t.Fatalf("no %q field in\n%s", c.key, out.String())
			}
		})
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	if err := run([]string{"-mode", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
