package control

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/metrics"
	"hermes/internal/sweep"
)

// State is the controller's admission state.
type State int32

const (
	// Disabled means no usable capacity model: admit everything.
	Disabled State = iota
	// Normal admits everything while watching for knee crossings.
	Normal
	// Shedding rejects new work (the server turns it into 429s) until
	// live signals fall back below the recovery fraction of the knee.
	Shedding
	// Recovered admits everything but stays alert: a fresh trip during
	// cooldown re-enters Shedding without the full entry debounce reset.
	Recovered
)

func (s State) String() string {
	switch s {
	case Disabled:
		return "disabled"
	case Normal:
		return "normal"
	case Shedding:
		return "shedding"
	case Recovered:
		return "recovered"
	}
	return "invalid"
}

// Source is where the controller reads live signals: satisfied by
// *metrics.Registry, faked by tests to script exact sequences.
type Source interface {
	LatencyHist() metrics.Hist
}

// ModeSwitcher actuates a tempo-mode change: satisfied by
// *hermes.Runtime (Native backend).
type ModeSwitcher interface {
	SetMode(hermes.Mode) error
}

// Config parameterizes a Controller. Model and Source are required for
// an enabled controller; everything else has a default.
type Config struct {
	// Model is the calibrated capacity model (nil → Disabled).
	Model *sweep.Model
	// Mode is the tempo mode the runtime boots in. The model must carry
	// a curve with a resolved knee for it, or the controller disables.
	Mode hermes.Mode
	// Source supplies live metrics (nil → Disabled).
	Source Source

	// Switcher, when non-nil, lets the controller change tempo mode to
	// the model's energy-optimal choice for the observed rate. Nil
	// keeps admission control only.
	Switcher ModeSwitcher

	// Log, when non-nil, receives one line per state transition and
	// mode switch.
	Log func(format string, args ...any)

	// DisabledReason, when non-empty, forces the controller Disabled
	// with this reason — how the server surfaces "model failed to
	// load: ..." on /controlz instead of a generic no-model message.
	DisabledReason string
}

// The loop's hysteresis, in ticks: enterTicks over-knee observations
// in a row enter Shedding, exitTicks calm observations leave it,
// cooldownTicks calm observations graduate Recovered → Normal, and
// modeHoldTicks is the minimum spacing between mode switches. An
// observation is calm when rate AND p99 are below recoverFrac × their
// knee bounds.
const (
	enterTicks    = 2
	exitTicks     = 3
	cooldownTicks = 5
	modeHoldTicks = 10
	recoverFrac   = 0.8
)

// Controller runs the admission/actuation feedback loop. Admit is safe
// to call concurrently with Tick and Status.
type Controller struct {
	cfg     Config
	state   atomic.Int32
	offered atomic.Int64 // Admit calls
	shed    atomic.Int64 // Admit rejections

	// shedFloor is the highest service-class priority currently being
	// shed: while Shedding, requests with priority <= shedFloor are
	// refused and higher classes pass. It starts at 0 (only the
	// default class sheds) and escalates one class at a time while
	// pressure persists — lowest-priority-first, by construction.
	shedFloor atomic.Int32
	// prioMax is the highest priority observed across Admit calls, the
	// escalation ceiling: shedding every class the server has actually
	// seen is maximal shedding.
	prioMax atomic.Int32

	mu          sync.Mutex
	reason      string // why Disabled ("" when enabled)
	mode        string // current tempo mode name
	kneeRPS     float64
	kneeLatMS   float64
	tripStreak  int
	calmStreak  int
	holdTicks   int // ticks until the next mode switch is allowed
	ticks       int64
	switches    int64
	lastOffered int64 // offered counter at previous tick
	lastHist    metrics.Hist
	liveRPS     float64 // most recent windowed offered rate
	liveP99MS   float64 // most recent windowed p99
}

// New builds a controller. It never fails: configurations that cannot
// support the feedback loop come back Disabled with a reason, so the
// caller can always mount /controlz and scrape hermes_control_state.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg, mode: cfg.Mode.String()}
	if reason := c.usable(); reason != "" {
		c.reason = reason
		c.state.Store(int32(Disabled))
		return c
	}
	k, _ := cfg.Model.Knee(c.mode)
	c.kneeRPS = k
	c.kneeLatMS = cfg.Model.KneeLatencyMS(c.mode)
	c.state.Store(int32(Normal))
	return c
}

// usable reports why the controller cannot run, or "" if it can.
func (c *Controller) usable() string {
	switch {
	case c.cfg.DisabledReason != "":
		return c.cfg.DisabledReason
	case c.cfg.Model == nil:
		return "no capacity model loaded"
	case c.cfg.Source == nil:
		return "no metrics source"
	case !c.cfg.Model.HasMode(c.mode):
		return fmt.Sprintf("model has no curve for boot mode %q (has %v)",
			c.mode, c.cfg.Model.Modes())
	}
	if _, ok := c.cfg.Model.Knee(c.mode); !ok {
		return fmt.Sprintf("model's knee for mode %q did not resolve; re-run the sweep with a wider rate grid", c.mode)
	}
	return ""
}

// Enabled reports whether the feedback loop is live.
func (c *Controller) Enabled() bool { return State(c.state.Load()) != Disabled }

// State returns the current admission state.
func (c *Controller) State() State { return State(c.state.Load()) }

// Admit decides one incoming request of the default (priority 0)
// service class: true admits it, false tells the server to shed it
// (429). Every call counts toward the offered-rate signal, shed or not
// — the controller must see the load it is refusing, or it could never
// recover.
func (c *Controller) Admit() bool { return c.AdmitPriority(0) }

// AdmitPriority decides one incoming request carrying a service-class
// priority. Shedding is lowest-priority-first: while the controller is
// over the knee it refuses classes up to the current shed floor, which
// starts at the default class (0) and escalates one class per entry
// debounce while pressure persists — so latency-critical traffic is
// the last to be turned away.
func (c *Controller) AdmitPriority(priority int) bool {
	c.offered.Add(1)
	p := int32(priority)
	for {
		seen := c.prioMax.Load()
		if p <= seen || c.prioMax.CompareAndSwap(seen, p) {
			break
		}
	}
	if State(c.state.Load()) == Shedding && p <= c.shedFloor.Load() {
		c.shed.Add(1)
		return false
	}
	return true
}

// Tick runs one control step over the window since the previous tick:
// read live signals, update the hysteresis state machine, and (when
// allowed) actuate a tempo-mode switch. dt is the wall-clock width of
// the window and must be positive.
func (c *Controller) Tick(dt time.Duration) {
	if !c.Enabled() || dt <= 0 {
		return
	}
	hist := c.cfg.Source.LatencyHist()
	offered := c.offered.Load()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	win := hist.Sub(c.lastHist)
	c.lastHist = hist
	c.liveP99MS = win.Quantile(0.99) * 1e3
	c.liveRPS = float64(offered-c.lastOffered) / dt.Seconds()
	c.lastOffered = offered

	over := (c.kneeLatMS > 0 && c.liveP99MS > c.kneeLatMS) || c.liveRPS > c.kneeRPS
	calm := c.liveRPS < recoverFrac*c.kneeRPS &&
		(c.kneeLatMS <= 0 || c.liveP99MS < recoverFrac*c.kneeLatMS)

	switch State(c.state.Load()) {
	case Normal:
		if over {
			c.tripStreak++
			if c.tripStreak >= enterTicks {
				c.transitionLocked(Shedding)
			}
		} else {
			c.tripStreak = 0
		}
	case Shedding:
		if calm {
			c.calmStreak++
			if c.calmStreak >= exitTicks {
				c.transitionLocked(Recovered)
			}
		} else {
			c.calmStreak = 0
			// Still over the knee with the current classes shed:
			// escalate the floor one priority class at a time, after the
			// same debounce as entry, until every class the server has
			// seen is shedding. Lower classes always shed before higher.
			if over {
				c.tripStreak++
				if c.tripStreak >= enterTicks && c.shedFloor.Load() < c.prioMax.Load() {
					c.tripStreak = 0
					floor := c.shedFloor.Add(1)
					if c.cfg.Log != nil {
						c.cfg.Log("control: shedding escalated to priority <= %d (offered %.1f rps, p99 %.1f ms)",
							floor, c.liveRPS, c.liveP99MS)
					}
				}
			} else {
				c.tripStreak = 0
			}
		}
	case Recovered:
		if over {
			c.tripStreak++
			if c.tripStreak >= enterTicks {
				c.transitionLocked(Shedding)
			}
		} else {
			c.tripStreak = 0
			c.calmStreak++
			if c.calmStreak >= cooldownTicks {
				c.transitionLocked(Normal)
			}
		}
	}
	c.maybeSwitchModeLocked()
}

// transitionLocked moves the state machine and resets the streaks;
// c.mu must be held.
func (c *Controller) transitionLocked(next State) {
	prev := State(c.state.Load())
	c.state.Store(int32(next))
	c.tripStreak, c.calmStreak = 0, 0
	if next != Shedding {
		// Leaving Shedding de-escalates completely: the next episode
		// starts over from the default class.
		c.shedFloor.Store(0)
	}
	if c.cfg.Log != nil {
		c.cfg.Log("control: %v -> %v (offered %.1f rps, p99 %.1f ms; knee %.1f rps, %.1f ms)",
			prev, next, c.liveRPS, c.liveP99MS, c.kneeRPS, c.kneeLatMS)
	}
}

// maybeSwitchModeLocked actuates the model's energy-optimal mode for
// the observed rate, rate-limited by modeHoldTicks; c.mu must be held.
func (c *Controller) maybeSwitchModeLocked() {
	if c.cfg.Switcher == nil {
		return
	}
	if c.holdTicks > 0 {
		c.holdTicks--
		return
	}
	best, ok := c.cfg.Model.BestMode(c.liveRPS)
	if !ok || best == c.mode {
		return
	}
	if _, ok := c.cfg.Model.Knee(best); !ok {
		return // never switch into a mode whose knee is unknown
	}
	m, err := hermes.ParseMode(best)
	if err != nil {
		return // model mode name outside the runtime's vocabulary
	}
	if err := c.cfg.Switcher.SetMode(m); err != nil {
		if c.cfg.Log != nil {
			c.cfg.Log("control: mode switch %s -> %s failed: %v", c.mode, best, err)
		}
		return
	}
	prev := c.mode
	c.mode = best
	c.switches++
	c.holdTicks = modeHoldTicks
	k, _ := c.cfg.Model.Knee(best)
	c.kneeRPS = k
	c.kneeLatMS = c.cfg.Model.KneeLatencyMS(best)
	if c.cfg.Log != nil {
		c.cfg.Log("control: tempo mode %s -> %s (offered %.1f rps; new knee %.1f rps, %.1f ms)",
			prev, best, c.liveRPS, c.kneeRPS, c.kneeLatMS)
	}
}

// Run ticks the controller every interval until ctx-like done closes.
// The caller owns the goroutine; serve wires its shutdown channel in.
func (c *Controller) Run(done <-chan struct{}, interval time.Duration) {
	if !c.Enabled() || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			c.Tick(interval)
		}
	}
}

// Status is the /controlz document.
type Status struct {
	Enabled bool   `json:"enabled"`
	Reason  string `json:"reason,omitempty"` // why disabled
	State   string `json:"state"`
	Mode    string `json:"mode"`

	ModelPath     string   `json:"model_path,omitempty"`
	KneeRPS       float64  `json:"knee_rps"`
	KneeLatencyMS float64  `json:"knee_latency_ms"`
	ModelModes    []string `json:"model_modes,omitempty"`

	OfferedRPS float64 `json:"offered_rps"`
	LiveP99MS  float64 `json:"live_p99_ms"`

	Offered      int64 `json:"offered_total"`
	Shed         int64 `json:"shed_total"`
	ModeSwitches int64 `json:"mode_switches_total"`
	Ticks        int64 `json:"ticks"`

	// ShedFloor is the highest priority class currently refused while
	// shedding (meaningful only in the shedding state); MaxPriority the
	// highest class the controller has seen.
	ShedFloor   int `json:"shed_floor"`
	MaxPriority int `json:"max_priority"`
}

// Status returns a consistent snapshot of the controller.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Enabled:       c.reason == "",
		Reason:        c.reason,
		State:         State(c.state.Load()).String(),
		Mode:          c.mode,
		KneeRPS:       c.kneeRPS,
		KneeLatencyMS: c.kneeLatMS,
		OfferedRPS:    c.liveRPS,
		LiveP99MS:     c.liveP99MS,
		Offered:       c.offered.Load(),
		Shed:          c.shed.Load(),
		ModeSwitches:  c.switches,
		Ticks:         c.ticks,
		ShedFloor:     int(c.shedFloor.Load()),
		MaxPriority:   int(c.prioMax.Load()),
	}
	if c.cfg.Model != nil {
		s.ModelPath = c.cfg.Model.Path
		s.ModelModes = c.cfg.Model.Modes()
	}
	return s
}

// WritePrometheus renders the hermes_control_* series; mount it on the
// registry with AddCollector so /metrics carries the control plane.
func (c *Controller) WritePrometheus(w io.Writer) error {
	s := c.Status()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	enabled := 0
	if s.Enabled {
		enabled = 1
	}
	p("# HELP hermes_control_enabled Whether the admission controller has a usable capacity model.\n# TYPE hermes_control_enabled gauge\nhermes_control_enabled %d\n", enabled)
	p("# HELP hermes_control_state Admission state (0 disabled, 1 normal, 2 shedding, 3 recovered).\n# TYPE hermes_control_state gauge\nhermes_control_state %d\n", c.state.Load())
	p("# HELP hermes_control_offered_rps Offered request rate over the last control tick.\n# TYPE hermes_control_offered_rps gauge\nhermes_control_offered_rps %g\n", s.OfferedRPS)
	p("# HELP hermes_control_p99_ms Windowed p99 job sojourn over the last control tick.\n# TYPE hermes_control_p99_ms gauge\nhermes_control_p99_ms %g\n", s.LiveP99MS)
	p("# HELP hermes_control_knee_rps Calibrated knee rate for the current tempo mode.\n# TYPE hermes_control_knee_rps gauge\nhermes_control_knee_rps %g\n", s.KneeRPS)
	p("# HELP hermes_control_knee_latency_ms Calibrated p99 bound for the current tempo mode.\n# TYPE hermes_control_knee_latency_ms gauge\nhermes_control_knee_latency_ms %g\n", s.KneeLatencyMS)
	p("# HELP hermes_control_offered_total Requests seen by the admission controller.\n# TYPE hermes_control_offered_total counter\nhermes_control_offered_total %d\n", s.Offered)
	p("# HELP hermes_control_shed_total Requests shed while over the knee.\n# TYPE hermes_control_shed_total counter\nhermes_control_shed_total %d\n", s.Shed)
	p("# HELP hermes_control_mode_switches_total Tempo-mode switches actuated by the controller.\n# TYPE hermes_control_mode_switches_total counter\nhermes_control_mode_switches_total %d\n", s.ModeSwitches)
	p("# HELP hermes_control_shed_floor Highest service-class priority currently shed (lowest-priority-first).\n# TYPE hermes_control_shed_floor gauge\nhermes_control_shed_floor %d\n", s.ShedFloor)
	return err
}
