package main

import "testing"

// TestCheckModes pins the two silent misreadings of the command line:
// `-load -sweep` ran only the sweep, and `fig 6` (no dash) stopped
// flag parsing and regenerated every figure.
func TestCheckModes(t *testing.T) {
	cases := []struct {
		name        string
		load, sweep bool
		args        []string
		ok          bool
	}{
		{"figures", false, false, nil, true},
		{"load", true, false, nil, true},
		{"sweep", false, true, nil, true},
		{"load and sweep", true, true, nil, false},
		{"fig without dash", false, false, []string{"fig", "6"}, false},
		{"stray argument after load", true, false, []string{"ticks"}, false},
	}
	for _, c := range cases {
		err := checkModes(c.load, c.sweep, c.args)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkModes(%v, %v, %q) = %v, want ok=%v",
				c.name, c.load, c.sweep, c.args, err, c.ok)
		}
	}
}
