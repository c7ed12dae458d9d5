package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"hermes"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// Salt is the PCG stream constant every seeded arrival process draws
// from. It is THE single copy: the sweep and the wall-clock load
// generator both generate their schedules through this package, so a
// one-point sweep and `-load` replay the same seeded trace by
// construction, not by keeping two constants in sync.
const Salt = 0x9e3779b97f4a7c15

// Default is the process name an empty -trace flag (or config field)
// resolves to. Artifacts normalize it to "" (see Canonical) so the
// poisson-era JSON shape is preserved byte-for-byte.
const Default = "poisson"

// Point is one generated arrival: its offset from the window start,
// a service-size multiplier (1 = the workload's nominal size), and
// the service class the arrival belongs to (zero = unclassed, the
// single-class processes).
type Point struct {
	At    units.Time
	Size  float64
	Class hermes.Class
}

// Proc is one registered arrival process.
type Proc struct {
	// Name is the registry key (-trace flag value).
	Name string
	// Desc is a one-line description.
	Desc string
	// Gen draws the point sequence at mean rate rps over (0, horizon]
	// from rng. It must consume rng deterministically — the sequence
	// is a function of (seed, rps, horizon) alone — and return points
	// in ascending order.
	Gen func(rng *rand.Rand, rps float64, horizon units.Time) []Point
}

// Lookup finds a registered process by name.
func Lookup(name string) (Proc, bool) {
	for _, p := range procs {
		if p.Name == name {
			return p, true
		}
	}
	return Proc{}, false
}

// Names lists the registered process names in table order.
func Names() []string {
	out := make([]string, len(procs))
	for i, p := range procs {
		out[i] = p.Name
	}
	return out
}

// Resolve maps a user-supplied process name ("" = Default) to its
// registered Proc, rejecting unknown names with the registered list.
func Resolve(name string) (Proc, error) {
	if name == "" {
		name = Default
	}
	p, ok := Lookup(name)
	if !ok {
		return Proc{}, fmt.Errorf("trace: unknown arrival process %q (registered: %v)", name, Names())
	}
	return p, nil
}

// Canonical returns the artifact form of a process name: the default
// process collapses to "" so poisson-era artifacts keep their
// byte-exact shape; any other name passes through.
func Canonical(name string) string {
	if name == Default {
		return ""
	}
	return name
}

// Points validates the rate and window and generates the process's
// deterministic point sequence for one seed.
func (p Proc) Points(seed int64, rps float64, window time.Duration) ([]Point, error) {
	if p.Gen == nil {
		return nil, fmt.Errorf("trace: process %q has no generator", p.Name)
	}
	if rps <= 0 {
		return nil, fmt.Errorf("trace: rps must be positive, got %g", rps)
	}
	if window <= 0 {
		return nil, fmt.Errorf("trace: window must be positive, got %v", window)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), Salt))
	horizon := units.Time(window.Nanoseconds()) * units.Nanosecond
	pts := p.Gen(rng, rps, horizon)
	if len(pts) == 0 {
		return nil, fmt.Errorf("trace: no arrivals in a %v window at %g rps; raise the rate or the window", window, rps)
	}
	return pts, nil
}

// Arrivals generates the point sequence and compiles it into a
// runnable virtual-time trace, one task per arrival at the drawn
// size. build is typically a workload Spec's SizedTask method.
func (p Proc) Arrivals(build func(size float64) (wl.Task, error), seed int64, rps float64, window time.Duration) ([]hermes.Arrival, error) {
	pts, err := p.Points(seed, rps, window)
	if err != nil {
		return nil, err
	}
	arrivals := make([]hermes.Arrival, len(pts))
	for i, pt := range pts {
		task, err := build(pt.Size)
		if err != nil {
			return nil, err
		}
		arrivals[i] = hermes.Arrival{At: pt.At, Task: task, Class: pt.Class}
	}
	return arrivals, nil
}

// SubProc is one named component of a mixed arrival process: a share
// of the total offered rate, a generator for its own point stream,
// and the service class stamped on every arrival it produces.
type SubProc struct {
	// Name labels the component (diagnostics; the Class carries the
	// identity the scheduler and reports see).
	Name string
	// Share is this component's fraction of the mix's total rate;
	// shares across a mix must sum to 1.
	Share float64
	// Class is stamped on every point the component generates.
	Class hermes.Class
	// Gen draws the component's points at its own (already scaled)
	// rate — the same contract as Proc.Gen.
	Gen func(rng *rand.Rand, rps float64, horizon units.Time) []Point
}

// Mix composes N named sub-processes into one arrival process under a
// single seed: each component draws from its own PCG sub-stream
// (seeded by one Uint64 from the parent stream, in declaration order)
// at share×rps, every point is stamped with the component's class,
// and the merged trace is ordered by arrival time with ties kept in
// declaration order. The composition is deterministic: a fixed
// (seed, rps, horizon) reproduces the identical mixed trace.
func Mix(name, desc string, subs ...SubProc) Proc {
	if len(subs) == 0 {
		panic("trace: Mix needs at least one sub-process")
	}
	var total float64
	for _, s := range subs {
		if s.Share <= 0 || s.Gen == nil {
			panic(fmt.Sprintf("trace: malformed mix component %q", s.Name))
		}
		total += s.Share
	}
	if math.Abs(total-1) > 1e-9 {
		panic(fmt.Sprintf("trace: mix %q shares sum to %g, want 1", name, total))
	}
	return Proc{
		Name: name,
		Desc: desc,
		Gen: func(rng *rand.Rand, rps float64, horizon units.Time) []Point {
			var all []Point
			for _, s := range subs {
				// One parent draw per component, in declaration order,
				// seeds an independent sub-stream: components never
				// perturb each other's sequences, whatever their rates.
				sub := rand.New(rand.NewPCG(rng.Uint64(), Salt))
				pts := s.Gen(sub, rps*s.Share, horizon)
				for i := range pts {
					pts[i].Class = s.Class
				}
				all = append(all, pts...)
			}
			sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
			return all
		},
	}
}

// Canonical 2-class mix parameters: heavy-tailed batch work carries
// most of the offered load while a light latency-critical class rides
// on top with a deadline and SLO target — the "who pays for energy
// savings" traffic shape.
const (
	MixBatchShare = 0.8
	MixLCShare    = 0.2
	// MixLCSize is the latency-critical request's service-size
	// multiplier: an order of magnitude lighter than the mean batch
	// request.
	MixLCSize = 0.1
	// MixLCDeadline and MixLCSLO are the latency-critical class's
	// relative deadline (DispatchEDF key) and sojourn target
	// (attainment reporting).
	MixLCDeadline = 5 * units.Millisecond
	MixLCSLO      = 5 * units.Millisecond
)

// MixBatchClass and MixLCClass are the service classes of the
// canonical "mix" process's two components.
func MixBatchClass() hermes.Class {
	return hermes.Class{Tenant: "batch", Priority: 0}
}

func MixLCClass() hermes.Class {
	return hermes.Class{Tenant: "lc", Priority: 1, Deadline: MixLCDeadline, SLOTarget: MixLCSLO}
}

// MMPP shape: the high state bursts at 3× the target rate, the low
// state idles at ⅓ of it, and dwell times are chosen so the process
// spends ¼ of its time high — the stationary mean rate is exactly the
// target rps, a burst carries ~15 arrivals and a lull ~5 at any rate.
const (
	mmppHighRate  = 3.0
	mmppLowRate   = 1.0 / 3.0
	mmppHighDwell = 5.0  // mean high dwell × rps, seconds
	mmppLowDwell  = 15.0 // mean low dwell × rps, seconds
)

// Bounded-Pareto size distribution: α = 1.5 with x_m = ⅓ gives mean
// α·x_m/(α−1) = 1, so the offered work matches the poisson process on
// average while individual requests range up to the 100× cap.
const (
	paretoAlpha   = 1.5
	paretoXm      = 1.0 / 3.0
	paretoMaxSize = 100.0
)

// poissonSized returns a memoryless-arrival generator stamping every
// point with a fixed size. poissonSized(1) is stream-compatible with
// the pre-registry sweep generator: one ExpFloat64 per arrival, loop
// leaves on the first draw past the horizon.
func poissonSized(size float64) func(*rand.Rand, float64, units.Time) []Point {
	return func(rng *rand.Rand, rps float64, horizon units.Time) []Point {
		var pts []Point
		at := units.Time(0)
		for {
			at += units.Time(rng.ExpFloat64() / rps * float64(units.Second))
			if at > horizon {
				break
			}
			pts = append(pts, Point{At: at, Size: size})
		}
		return pts
	}
}

// paretoGen draws Poisson arrivals with bounded-Pareto sizes — the
// heavy-tailed service distribution (α=1.5, mean 1, cap 100×).
func paretoGen(rng *rand.Rand, rps float64, horizon units.Time) []Point {
	var pts []Point
	at := units.Time(0)
	for {
		at += units.Time(rng.ExpFloat64() / rps * float64(units.Second))
		if at > horizon {
			break
		}
		// Inverse-CDF draw; 1−U ∈ (0,1] keeps the pow argument
		// away from 0, the cap bounds the tail.
		size := paretoXm / math.Pow(1-rng.Float64(), 1/paretoAlpha)
		if size > paretoMaxSize {
			size = paretoMaxSize
		}
		pts = append(pts, Point{At: at, Size: size})
	}
	return pts
}

// procs is the ordered table of arrival processes, read-only after
// package initialization. Names are unique and every entry has a Gen
// (TestResolve).
var procs = []Proc{
	{
		Name: "poisson",
		Desc: "memoryless arrivals: exponential interarrivals at the target rate, unit size",
		Gen:  poissonSized(1),
	},
	{
		Name: "mmpp",
		Desc: "bursty two-state modulated Poisson: 3× bursts and ⅓× lulls, mean rate = target",
		Gen: func(rng *rand.Rand, rps float64, horizon units.Time) []Point {
			sec := float64(units.Second)
			var pts []Point
			at := units.Time(0)
			high := false
			dwellEnd := units.Time(rng.ExpFloat64() * mmppLowDwell / rps * sec)
			for {
				rate := mmppLowRate * rps
				if high {
					rate = mmppHighRate * rps
				}
				next := at + units.Time(rng.ExpFloat64()/rate*sec)
				if next > dwellEnd {
					// The state flips before this arrival lands; the
					// exponential is memoryless, so discarding the draw
					// and restarting from the switch point is exact.
					if dwellEnd > horizon {
						break
					}
					at = dwellEnd
					high = !high
					dwell := mmppLowDwell
					if high {
						dwell = mmppHighDwell
					}
					dwellEnd = at + units.Time(rng.ExpFloat64()*dwell/rps*sec)
					continue
				}
				at = next
				if at > horizon {
					break
				}
				pts = append(pts, Point{At: at, Size: 1})
			}
			return pts
		},
	},
	{
		Name: "pareto",
		Desc: "Poisson arrivals with heavy-tailed sizes: bounded Pareto (α=1.5, mean 1) scales each request's work",
		Gen:  paretoGen,
	},
	Mix(
		"mix",
		"2-class mix: 80% heavy-tailed batch (pareto sizes) + 20% light latency-critical (priority 1, 5ms deadline/SLO)",
		SubProc{Name: "batch", Share: MixBatchShare, Class: MixBatchClass(), Gen: paretoGen},
		SubProc{Name: "lc", Share: MixLCShare, Class: MixLCClass(), Gen: poissonSized(MixLCSize)},
	),
}
