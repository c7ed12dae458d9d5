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

// ReplayTrace replays an explicit arrival trace through a fresh
// virtual-time Sim pool and measures the open-system outcome as a
// Point — the primitive under both the sweep's generated grid points
// and the serving layer's /capacity endpoint, which replays a captured
// (and rate-scaled) production trace to predict behaviour at traffic
// the machine has not yet seen. The Point's OfferedRPS is arrivals
// over the trace's arrival span (0 for a span of zero). Arrival times
// must be non-negative and ascending; a fixed (config, trace) pair
// reproduces the Point exactly.
func ReplayTrace(cfg ReplayConfig, arrivals []hermes.Arrival) (Point, error) {
	if len(arrivals) == 0 {
		return Point{}, fmt.Errorf("sweep: replay: empty arrival trace")
	}
	for i, a := range arrivals {
		if a.At < 0 {
			return Point{}, fmt.Errorf("sweep: replay: arrival %d at negative time %v", i, a.At)
		}
		if i > 0 && a.At < arrivals[i-1].At {
			return Point{}, fmt.Errorf("sweep: replay: arrivals not ascending at %d", i)
		}
	}
	g := grid{seed: cfg.Seed, workers: cfg.Workers}
	f := newFold(1)
	if err := g.trial(f, fleet{mode: cfg.Mode, machines: 1}, cfg.Seed, arrivals); err != nil {
		return Point{}, err
	}
	var offered float64
	if span := arrivals[len(arrivals)-1].At - arrivals[0].At; span > 0 {
		offered = float64(len(arrivals)) / span.Seconds()
	}
	return f.machinePoint(offered), nil
}
