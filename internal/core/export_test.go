package core

import "hermes/internal/wl"

// PendBound is the run-ahead bound (pendBound) for the external tests,
// which need internal/fault and so cannot live in package core.
var PendBound = &pendBound

// Preempting reports whether the body running on c started inside a
// quantum preemption: its worker took it mid-segment of another job.
func Preempting(c wl.Ctx) bool { return c.(*ctx).w.preemptDepth > 0 }

// FoldProbes is the fold of a thief's empty probes (foldProbes), which
// FuzzProbeFold turns off for its oracle.
var FoldProbes = &foldProbes
