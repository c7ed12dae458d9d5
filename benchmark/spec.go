package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

// metricSpec is one metric as BENCHMARK.json declares it. The file is
// the only table of names, units, directions and bounds: this program
// looks every number it prints up there, and refuses to print one that
// is not declared or to omit one that is.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	path string // where the file was found
}

// loadSpec reads BENCHMARK.json from path, or from the working
// directory or its parent: the program is started either from the root
// of a checkout or from its own directory.
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if s.path, err = filepath.Abs(p); err != nil {
			return nil, err
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (tried %v); pass -spec", candidates)
}

// goldenPath is golden.json beside this program's sources.
func (s *benchSpec) goldenPath() string {
	return filepath.Join(filepath.Dir(s.path), "benchmark", "golden.json")
}

// goldenKey names one recorded digest.
func goldenKey(workload string, small bool) string {
	if small {
		return workload + "/smoke"
	}
	return workload
}

func readGolden(spec *benchSpec) map[string]string {
	golden := map[string]string{}
	if data, err := os.ReadFile(spec.goldenPath()); err == nil {
		json.Unmarshal(data, &golden)
	}
	return golden
}

// checkGolden compares the digests of this run's simulated reports
// with golden.json. The digests depend on the seed, so any other seed
// than the default skips the comparison (and nothing else). It returns
// 1 when a digest differs — the simulator's statistics changed, which
// a refactoring or an engine-only change must not do — and a line
// saying what it found.
func checkGolden(spec *benchSpec, opt options, digests map[string]string) (changed float64, note string) {
	if opt.seed != defaultSeed {
		return 0, ""
	}
	golden := readGolden(spec)
	for _, name := range sortedKeys(digests) {
		if digests[name] == "" {
			continue
		}
		key := goldenKey(name, opt.smoke)
		switch want, ok := golden[key]; {
		case !ok:
			changed = 1
			note += fmt.Sprintf("sim digest %s: %s, none recorded in golden.json; ", key, digests[name])
		case want != digests[name]:
			changed = 1
			note += fmt.Sprintf("sim digest %s: %s CHANGED from %s; ", key, digests[name], want)
		default:
			note += fmt.Sprintf("sim digest %s: %s matches; ", key, want)
		}
	}
	return changed, note
}

// updateGolden records the digests of the first round of both
// simulating workloads, at full and at smoke size, at the default seed.
func updateGolden(spec *benchSpec, opt options) error {
	golden := map[string]string{}
	for _, name := range []string{"paper_figs", "sim_sweep"} {
		for _, small := range []bool{false, true} {
			o, err := runners[name](slice{seed: defaultSeed, seconds: 0, small: small, setups: 1})
			if err != nil {
				return err
			}
			if len(o.violations) > 0 {
				return fmt.Errorf("%s: %s", name, o.violations[0])
			}
			golden[goldenKey(name, small)] = o.digest
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(spec.goldenPath(), append(data, '\n'), 0o644)
}
