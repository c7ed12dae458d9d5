package sweep

import (
	"encoding/json"
	"fmt"
	"os"

	"hermes/internal/workload"
)

// Model is a sweep artifact (Result) loaded as a calibrated capacity
// model: the serving control plane's lookup table. Where the sweep
// answers "what does this machine do at rate r in mode m?" offline,
// the model answers the controller's online questions — what arrival
// rate knees the current mode, what p99 bound defines that knee, and
// which mode serves an observed rate for the fewest joules per
// request.
//
// A Model is immutable after construction and safe for concurrent
// use.
type Model struct {
	// Path is the artifact file the model was loaded from ("" when
	// built in-process from a Result).
	Path string

	res Result
}

// LoadModel reads a sweep JSON artifact (the hermes-bench -sweep
// -json output) and validates it into a capacity model.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: model: %w", err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("sweep: model %s: %w", path, err)
	}
	m, err := ModelFromResult(res)
	if err != nil {
		return nil, fmt.Errorf("sweep: model %s: %w", path, err)
	}
	m.Path = path
	return m, nil
}

// ModelFromResult validates a sweep Result into a capacity model: it
// must carry at least one curve, every curve one point per grid rate,
// and an ascending rate grid — anything less is a stale or truncated
// artifact a controller must not calibrate against.
func ModelFromResult(res Result) (*Model, error) {
	if len(res.RatesRPS) == 0 {
		return nil, fmt.Errorf("no rate grid")
	}
	for i, r := range res.RatesRPS {
		if r <= 0 {
			return nil, fmt.Errorf("non-positive grid rate %g", r)
		}
		if i > 0 && r <= res.RatesRPS[i-1] {
			return nil, fmt.Errorf("rate grid not ascending at %g", r)
		}
	}
	if len(res.Curves) == 0 {
		return nil, fmt.Errorf("no curves")
	}
	if res.KneeFactor <= 0 {
		return nil, fmt.Errorf("non-positive knee factor %g", res.KneeFactor)
	}
	seen := map[string]bool{}
	for _, c := range res.Curves {
		if seen[c.Mode] {
			return nil, fmt.Errorf("duplicate curve for mode %q", c.Mode)
		}
		seen[c.Mode] = true
		if len(c.Points) != len(res.RatesRPS) {
			return nil, fmt.Errorf("mode %q has %d points for a %d-rate grid",
				c.Mode, len(c.Points), len(res.RatesRPS))
		}
	}
	return &Model{res: res}, nil
}

// Result returns the underlying sweep artifact.
func (m *Model) Result() Result { return m.res }

// Workload returns the workload spec the model was calibrated with.
func (m *Model) Workload() workload.Spec { return m.res.Workload }

// KneeFactor returns the knee threshold multiple the artifact was
// computed with (p99 > KneeFactor × unloaded p50 defines the knee).
func (m *Model) KneeFactor() float64 { return m.res.KneeFactor }

// Modes lists the tempo modes the model carries curves for, in
// artifact order.
func (m *Model) Modes() []string {
	out := make([]string, len(m.res.Curves))
	for i, c := range m.res.Curves {
		out[i] = c.Mode
	}
	return out
}

// curve returns the curve for mode, or nil.
func (m *Model) curve(mode string) *Curve {
	for i := range m.res.Curves {
		if m.res.Curves[i].Mode == mode {
			return &m.res.Curves[i]
		}
	}
	return nil
}

// HasMode reports whether the model carries a curve for mode.
func (m *Model) HasMode(mode string) bool { return m.curve(mode) != nil }

// Knee returns mode's calibrated knee rate. ok is false when the model
// has no curve for mode or the curve's knee did not resolve (null in
// the artifact).
func (m *Model) Knee(mode string) (rps float64, ok bool) {
	c := m.curve(mode)
	if c == nil {
		return 0, false
	}
	return c.Knee()
}

// KneeLatencyMS returns the p99 sojourn bound (milliseconds) whose
// crossing defines mode's knee: KneeFactor × the mode's unloaded p50.
// This is the controller's latency trip wire — the live analogue of
// the offline knee test. Returns 0 when the model has no curve for
// mode or no unloaded baseline.
func (m *Model) KneeLatencyMS(mode string) float64 {
	c := m.curve(mode)
	if c == nil || c.UnloadedP50MS <= 0 {
		return 0
	}
	return m.res.KneeFactor * c.UnloadedP50MS
}

// JoulesPerRequestAt returns mode's calibrated joules/request at
// offered rate rps, linearly interpolated between grid rates and
// clamped at the grid's ends. ok is false when the model has no curve
// for mode.
func (m *Model) JoulesPerRequestAt(mode string, rps float64) (float64, bool) {
	c := m.curve(mode)
	if c == nil {
		return 0, false
	}
	rates := m.res.RatesRPS
	if rps <= rates[0] {
		return c.Points[0].JoulesPerRequest, true
	}
	last := len(rates) - 1
	if rps >= rates[last] {
		return c.Points[last].JoulesPerRequest, true
	}
	for i := 1; i <= last; i++ {
		if rps <= rates[i] {
			frac := (rps - rates[i-1]) / (rates[i] - rates[i-1])
			lo, hi := c.Points[i-1].JoulesPerRequest, c.Points[i].JoulesPerRequest
			return lo + frac*(hi-lo), true
		}
	}
	return c.Points[last].JoulesPerRequest, true
}

// BestMode returns the energy-optimal tempo mode for offered rate rps:
// among modes whose calibrated knee exceeds rps (they can sustain the
// load without kneeing), the one with the lowest interpolated
// joules/request; when no mode sustains rps, the one with the highest
// knee (most latency headroom). Modes whose knee did not resolve are
// considered only when no mode has a resolved knee at all — then the
// first curve wins by artifact order, keeping the choice
// deterministic. ok is false only for a model with no curves (which
// ModelFromResult rejects, so in practice never).
func (m *Model) BestMode(rps float64) (mode string, ok bool) {
	var (
		bestSustain  string
		bestSustainJ float64
		bestKnee     string
		bestKneeRPS  float64
	)
	for _, c := range m.res.Curves {
		k, resolved := c.Knee()
		if !resolved {
			continue
		}
		if k > bestKneeRPS {
			bestKnee, bestKneeRPS = c.Mode, k
		}
		if k > rps {
			j, _ := m.JoulesPerRequestAt(c.Mode, rps)
			if bestSustain == "" || j < bestSustainJ {
				bestSustain, bestSustainJ = c.Mode, j
			}
		}
	}
	switch {
	case bestSustain != "":
		return bestSustain, true
	case bestKnee != "":
		return bestKnee, true
	case len(m.res.Curves) > 0:
		return m.res.Curves[0].Mode, true
	}
	return "", false
}
