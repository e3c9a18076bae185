package main

import (
	"bytes"
	"strings"
	"testing"

	"indfd/internal/obs"
)

func TestRunEraser(t *testing.T) {
	var out bytes.Buffer
	code, _, err := run(&out, "eraser", 3, true, true, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	for _, want := range []string{
		"accepts=true",
		"implied=true",
		"reduction and simulation agree",
		"computation history",
		"R[s@1,a@2,a@3,a@4]", // the initial configuration expression
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejector(t *testing.T) {
	var out bytes.Buffer
	code, _, err := run(&out, "rejector", 2, false, false, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	if !strings.Contains(out.String(), "accepts=false") || !strings.Contains(out.String(), "implied=false") {
		t.Errorf("rejector output wrong:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := run(&bytes.Buffer{}, "nope", 2, false, false, nil); err == nil {
		t.Errorf("unknown machine should error")
	}
	if _, _, err := run(&bytes.Buffer{}, "eraser", 1, false, false, nil); err == nil {
		t.Errorf("n=1 should error (reduction needs n ≥ 2)")
	}
}

func TestRunInstrumented(t *testing.T) {
	reg := obs.New()
	var out bytes.Buffer
	code, sp, err := run(&out, "eraser", 3, false, false, reg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	snap := reg.Snapshot()
	if snap.Counters["ind.expanded"] == 0 || snap.Gauges["ind.frontier_peak"] == 0 {
		t.Errorf("ind instruments missing: %v %v", snap.Counters, snap.Gauges)
	}
	if h, ok := snap.Histograms["ind.chain_length"]; !ok || h.Count == 0 {
		t.Errorf("chain length histogram missing: %v", snap.Histograms)
	}
	if sp == nil || sp.Name != "lbared.reduction" || sp.Running {
		t.Fatalf("root span wrong: %+v", sp)
	}
	var names []string
	for _, c := range sp.Children {
		names = append(names, c.Name)
	}
	want := []string{"lba.simulate", "lba.reduce", "ind.decide"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("child spans = %v, want %v", names, want)
	}
}
