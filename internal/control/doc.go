// Package control is the serving feedback path: a controller that
// compares live metrics against a sweep-calibrated capacity model and
// actuates — shedding load before the pool knees, and switching the
// runtime's tempo mode to the energy-optimal choice for the observed
// arrival rate.
//
// The offline side of the loop is the open-system sweep
// (internal/sweep): for each tempo mode it measures the latency/energy
// curve over an arrival-rate grid and marks the knee — the rate where
// p99 sojourn exceeds five times the unloaded p50
// (sweep.DefaultKneeFactor). Loaded back in as a sweep.Model, that
// artifact tells the controller two things per mode: the arrival rate
// the machine cannot sustain (the knee rate) and the p99 bound whose
// crossing defines it (the knee latency). The controller watches the
// live analogues of both — offered request rate from its own admission
// counter, windowed p99 from the metrics registry's latency histogram —
// and trips when either crosses its calibrated bound.
//
// Tripping is hysteretic so transient spikes cannot flap the admission
// decision: two consecutive over-knee observations enter Shedding,
// three consecutive observations below 0.8 of both bounds leave it, a
// Recovered cooldown state absorbs after-shocks for five calm
// observations before declaring Normal, and mode switches are at least
// ten observations apart. These counts are constants, not options. The
// state machine is
//
//	Normal ──(2 over knee)──▶ Shedding
//	Shedding ──(3 calm)──▶ Recovered
//	Recovered ──(5 calm)──▶ Normal
//	Recovered ──(2 over knee)──▶ Shedding
//
// A controller with no usable model (missing file, stale artifact, no
// curve for the boot mode, unresolved knee) constructs Disabled: it
// admits everything, reports why, and never consults the model — the
// server boots and serves regardless.
package control
