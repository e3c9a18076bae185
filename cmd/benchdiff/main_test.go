package main

import (
	"reflect"
	"testing"

	"indfd/internal/obs"
)

// TestCounterDrift pins the gate's rule: equal counters pass, and a
// changed value, a counter the fresh run lacks (read as 0) and a counter
// only the fresh run has are each one drift. Gauges, where the wall
// times live, never count.
func TestCounterDrift(t *testing.T) {
	base := &obs.Snapshot{
		Counters: map[string]int64{"chase.rounds": 10, "fd.closure_passes": 4, "ind.expanded": 7, "pool.hits": 0},
		Gauges:   map[string]int64{"benchws.fd_ns": 1000},
	}
	same := &obs.Snapshot{
		Counters: map[string]int64{"chase.rounds": 10, "fd.closure_passes": 4, "ind.expanded": 7},
		Gauges:   map[string]int64{"benchws.fd_ns": 5000},
	}
	if d := counterDrift(base, same); d != nil {
		t.Errorf("equal counters (slower wall time, zero counter absent) drifted: %v", d)
	}
	changed := &obs.Snapshot{
		Counters: map[string]int64{"chase.rounds": 11, "fd.closure_passes": 4, "search.tried": 3},
	}
	want := []string{
		"chase.rounds: 10 -> 11",
		"ind.expanded: 7 -> 0",
		"search.tried: (absent) -> 3",
	}
	if d := counterDrift(base, changed); !reflect.DeepEqual(d, want) {
		t.Errorf("drift = %q, want %q", d, want)
	}
}
