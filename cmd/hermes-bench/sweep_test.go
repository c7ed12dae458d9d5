package main

import (
	"strings"
	"testing"
	"time"

	"hermes/internal/workload"
)

// TestParseRatesValidation: the -rates grid is validated up front —
// zero, negative, malformed and duplicate entries all fail with a
// clear error instead of surfacing mid-sweep.
func TestParseRatesValidation(t *testing.T) {
	rates, err := parseRates("25, 50,100")
	if err != nil || len(rates) != 3 {
		t.Fatalf("good grid rejected: %v %v", rates, err)
	}
	for _, bad := range []string{"", "0", "-5", "25,abc", "25,50,25", "nan"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

// TestParseMachinesValidation mirrors the rate checks for -machines.
func TestParseMachinesValidation(t *testing.T) {
	machines, err := parseMachines("1,4,8")
	if err != nil || len(machines) != 3 {
		t.Fatalf("good grid rejected: %v %v", machines, err)
	}
	for _, bad := range []string{"", "0", "-2", "2,two", "4,4", "2.5"} {
		if _, err := parseMachines(bad); err == nil {
			t.Errorf("parseMachines(%q) accepted", bad)
		}
	}
}

// TestParsePlacementsValidation: -placement accepts only known policy
// names, each once ("p2c" and "p3c" are distinct; "p2c,p2c" is not).
func TestParsePlacementsValidation(t *testing.T) {
	policies, err := parsePlacements("random,jsq,p2c,p3c,gossip")
	if err != nil || len(policies) != 5 {
		t.Fatalf("good list rejected: %v %v", policies, err)
	}
	for _, bad := range []string{"", "spray", "p2c,p2c", "jsq,least-loaded", "p0c"} {
		if _, err := parsePlacements(bad); err == nil {
			t.Errorf("parsePlacements(%q) accepted", bad)
		}
	}
	if _, err := parsePlacements("p2c,p2c"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate policy error missing: %v", err)
	}
}

// TestParseModesValidation: -modes accepts only known tempo modes,
// each once, so a repeated mode cannot run and write the same curve
// twice.
func TestParseModesValidation(t *testing.T) {
	modes, err := parseModes("baseline, workpath,workload,unified")
	if err != nil || len(modes) != 4 {
		t.Fatalf("good list rejected: %v %v", modes, err)
	}
	for _, bad := range []string{"", " , ", "turbo", "baseline,fast", "unified,hermes"} {
		if _, err := parseModes(bad); err == nil {
			t.Errorf("parseModes(%q) accepted", bad)
		}
	}
	if _, err := parseModes("unified,unified"); err == nil || !strings.Contains(err.Error(), "duplicate entry") {
		t.Fatalf("duplicate mode error missing: %v", err)
	}
}

// TestRunSweepClusterNeedsOneMode: the cluster sweep runs a single
// tempo mode; a multi-mode -modes list is rejected up front.
func TestRunSweepClusterNeedsOneMode(t *testing.T) {
	err := runSweep(sweepOpts{
		Spec:      workload.Spec{Kind: "ticks"},
		Rates:     "100",
		Modes:     "baseline,unified",
		Machines:  "2",
		Placement: "p2c",
		Window:    10 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "one tempo mode") {
		t.Fatalf("multi-mode cluster sweep accepted: %v", err)
	}
}
