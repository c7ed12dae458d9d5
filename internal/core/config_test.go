package core

import (
	"strings"
	"testing"
)

// TestValidateRejectsNegatives pins the checks on the fields whose zero
// value selects a default: a negative value is an error naming the
// field, never a silent default. A negative ProfilePeriod would
// otherwise panic the Native profiler's ticker.
func TestValidateRejectsNegatives(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"K", Config{K: -1}},
		{"ProfilePeriod", Config{ProfilePeriod: -1}},
		{"ProfileWindow", Config{ProfileWindow: -1}},
		{"PreemptQuantum", Config{PreemptQuantum: -1}},
	} {
		_, err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: got %v, want an error naming the field", tc.name, err)
		}
	}
	if _, err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
}
