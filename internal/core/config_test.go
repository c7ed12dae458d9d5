package core

import (
	"strings"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/units"
)

// TestValidateRejects pins Validate's checks: each bad config is an
// error naming the problem, never a silent default or a later panic.
// A negative PreemptQuantum is an error, not "disabled"; the frequency
// ladder rows reach users through hermes.Run and a Config handed to
// either executor.
func TestValidateRejects(t *testing.T) {
	// Nine descending operating points: one more than a residency
	// ledger's matrix covers.
	nine := cpu.SystemB()
	for f, mv := 1_200_000*units.KHz, 950; len(nine.Points) < 9; f, mv = f-200_000*units.KHz, mv-50 {
		p := nine.Points[len(nine.Points)-1]
		p.F, p.MilliVolts = f, mv
		nine.Points = append(nine.Points, p)
	}
	b := cpu.SystemB()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative quantum", Config{PreemptQuantum: -1}, "PreemptQuantum"},
		{"invalid scheduling", Config{Scheduling: 9}, "invalid scheduling"},
		{"unsupported frequency", Config{Spec: b, Freqs: []units.Freq{3_600_000 * units.KHz, 123 * units.KHz}}, "does not support"},
		{"ascending frequencies", Config{Spec: b,
			Freqs: []units.Freq{3_600_000 * units.KHz, 2_700_000 * units.KHz, 3_300_000 * units.KHz}}, "strictly descending"},
		{"fastest not max", Config{Spec: b, Freqs: []units.Freq{2_700_000 * units.KHz}}, "maximum frequency"},
		{"tempo needs two freqs", Config{Spec: b, Mode: Unified, Freqs: []units.Freq{3_600_000 * units.KHz}}, "at least two frequencies"},
		{"nine frequencies", Config{Spec: nine, Freqs: nine.Freqs()}, "at most 8 tempo frequencies"},
	} {
		_, err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
}
