package main

import (
	"testing"

	"treaty/internal/workload"
)

// TestRun runs the mix at a tiny scale; run fails if nothing commits.
func TestRun(t *testing.T) {
	cfg := workload.TPCCConfig{
		Warehouses:            2,
		DistrictsPerWarehouse: 2,
		CustomersPerDistrict:  10,
		Items:                 20,
	}
	if err := run(cfg, 2, 5); err != nil {
		t.Fatal(err)
	}
}
