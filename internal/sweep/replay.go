package sweep

import (
	"fmt"

	"hermes"
)

// ReplayConfig parameterizes one arrival-trace replay on a throwaway
// Sim pool.
type ReplayConfig struct {
	Mode    hermes.Mode
	Workers int // 0 = backend default
	Seed    int64
}

// Replay is the measured outcome of replaying one arrival trace
// through a fresh simulated machine: the deterministic prediction the
// /capacity digital twin returns. A fixed (config, trace) pair
// reproduces it exactly.
type Replay struct {
	Arrivals     int64   `json:"arrivals"`
	Completed    int64   `json:"completed"`
	Errors       int64   `json:"errors"`
	PeakInflight int64   `json:"peak_inflight"`
	MakespanS    float64 `json:"makespan_s"`
	// OfferedRPS is arrivals over the trace's arrival span; ObservedRPS
	// is completions over the makespan.
	OfferedRPS  float64 `json:"offered_rps"`
	ObservedRPS float64 `json:"observed_rps"`

	P50SojournMS float64 `json:"p50_sojourn_ms"`
	P95SojournMS float64 `json:"p95_sojourn_ms"`
	P99SojournMS float64 `json:"p99_sojourn_ms"`
	MaxSojournMS float64 `json:"max_sojourn_ms"`
	P99QueueMS   float64 `json:"p99_queue_ms"`

	JoulesPerRequest float64 `json:"joules_per_request"`
	AvgPowerW        float64 `json:"avg_power_w"`
}

// ReplayTrace replays an explicit arrival trace through a fresh
// virtual-time Sim pool and measures the open-system outcome — the
// primitive under both the sweep's generated grid points and the
// serving layer's /capacity endpoint, which replays a captured (and
// rate-scaled) production trace to predict behaviour at traffic the
// machine has not yet seen. Arrival times must be non-negative and
// ascending.
func ReplayTrace(cfg ReplayConfig, arrivals []hermes.Arrival) (Replay, error) {
	var out Replay
	if len(arrivals) == 0 {
		return out, fmt.Errorf("sweep: replay: empty arrival trace")
	}
	for i, a := range arrivals {
		if a.At < 0 {
			return out, fmt.Errorf("sweep: replay: arrival %d at negative time %v", i, a.At)
		}
		if i > 0 && a.At < arrivals[i-1].At {
			return out, fmt.Errorf("sweep: replay: arrivals not ascending at %d", i)
		}
	}
	g := grid{seed: cfg.Seed, workers: cfg.Workers}
	f := newFold(1)
	if err := g.trial(f, fleet{mode: cfg.Mode, machines: 1}, cfg.Seed, arrivals); err != nil {
		return out, err
	}
	l := f.latency()
	out = Replay{
		Arrivals:         l.Arrivals,
		Completed:        l.Completed,
		Errors:           l.Errors,
		PeakInflight:     l.PeakInflight,
		MakespanS:        l.MakespanS,
		ObservedRPS:      l.ObservedRPS,
		P50SojournMS:     l.P50SojournMS,
		P95SojournMS:     l.P95SojournMS,
		P99SojournMS:     l.P99SojournMS,
		MaxSojournMS:     l.MaxSojournMS,
		P99QueueMS:       l.P99QueueMS,
		JoulesPerRequest: f.perCompleted(f.jobJoules),
		AvgPowerW:        f.avgPowerW(),
	}
	if span := arrivals[len(arrivals)-1].At - arrivals[0].At; span > 0 {
		out.OfferedRPS = float64(len(arrivals)) / span.Seconds()
	}
	return out, nil
}
