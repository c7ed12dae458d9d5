package main

import "testing"

// TestCheckModes pins the silent misreadings of the command line:
// `-load -sweep` ran only the sweep, `fig 6` (no dash) stopped flag
// parsing and regenerated every figure, and a flag of another mode
// (`-load -machines 3`, `-load -trials 5`, `-fig 6 -rates 10`) was
// ignored with exit 0. A negative -trials or -scale fell back to the
// default in figure mode, and -trials -3 ran one trial in -sweep.
func TestCheckModes(t *testing.T) {
	cases := []struct {
		name        string
		load, sweep bool
		set         []string
		args        []string
		ok          bool
	}{
		{"figures", false, false, nil, nil, true},
		{"load", true, false, nil, nil, true},
		{"sweep", false, true, nil, nil, true},
		{"load and sweep", true, true, nil, nil, false},
		{"fig without dash", false, false, nil, []string{"fig", "6"}, false},
		{"stray argument after load", true, false, nil, []string{"ticks"}, false},
		{"figure flags", false, false, []string{"fig", "quick", "trials", "scale", "csv", "v"}, nil, true},
		{"load flags", true, false, []string{"load", "backend", "mode", "rps", "duration", "seed",
			"workers", "json", "dispatch", "quantum", "trace", "workload", "n", "grain", "work", "memfrac", "v"}, nil, true},
		{"sweep flags", false, true, []string{"sweep", "rates", "modes", "machines", "placement", "faults",
			"trials", "csv", "duration", "seed", "workers", "json", "dispatch", "quantum", "trace"}, nil, true},
		{"load with machines", true, false, []string{"load", "backend", "machines"}, nil, false},
		{"load with trials", true, false, []string{"load", "trials"}, nil, false},
		{"load with csv", true, false, []string{"load", "csv"}, nil, false},
		{"figure with rates", false, false, []string{"fig", "rates"}, nil, false},
		{"figure with json", false, false, []string{"json"}, nil, false},
		{"sweep with rps", false, true, []string{"sweep", "rps"}, nil, false},
		{"sweep with backend", false, true, []string{"sweep", "backend"}, nil, false},
		{"sweep with quick", false, true, []string{"sweep", "quick"}, nil, false},
	}
	for _, c := range cases {
		err := checkModes(c.load, c.sweep, 0, 0, c.set, c.args)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkModes(%v, %v, %q, %q) = %v, want ok=%v",
				c.name, c.load, c.sweep, c.set, c.args, err, c.ok)
		}
	}
	values := []struct {
		name   string
		sweep  bool
		trials int
		scale  float64
		ok     bool
	}{
		{"figure trials and scale", false, 5, 0.5, true},
		{"figure negative trials", false, -3, 0, false},
		{"figure negative scale", false, 0, -1, false},
		{"sweep trials", true, 3, 0, true},
		{"sweep negative trials", true, -3, 0, false},
	}
	for _, c := range values {
		set := []string{"trials"}
		if !c.sweep {
			set = append(set, "scale")
		}
		err := checkModes(false, c.sweep, c.trials, c.scale, set, nil)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkModes(false, %v, %d, %g, ...) = %v, want ok=%v",
				c.name, c.sweep, c.trials, c.scale, err, c.ok)
		}
	}
}
