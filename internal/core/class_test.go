package core

import "testing"

// FuzzParseDispatch: ParseDispatch never panics, and a policy it
// accepts renders to a name that parses back to it and passes Config
// validation. The seeds (every name it knows and near misses) run
// under plain go test.
func FuzzParseDispatch(f *testing.F) {
	for _, s := range []string{"", "fifo", "priority", "prio", "edf", "EDF", "lifo", "invalid"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDispatch(s)
		if err != nil {
			return
		}
		if e, err := ParseDispatch(d.String()); err != nil || e != d {
			t.Fatalf("ParseDispatch(%q) = %v renders %q, which parses to %v, %v", s, d, d.String(), e, err)
		}
		if _, err := (Config{Dispatch: d}).Validate(); err != nil {
			t.Fatalf("ParseDispatch(%q) = %v does not validate: %v", s, d, err)
		}
	})
}
