//go:build !hermescheck

package rt

// seam is empty in the normal build: a worker carries no checker.
type seam struct{}

// yield marks one synchronization step of the fork-join protocol
// (sites.go). The hermescheck build hands control to the interleaving
// checker here; this build inlines it away.
func (w *worker) yield(site) {}

// assert states an invariant of the protocol, which the hermescheck
// build reports; this build inlines it away.
func (w *worker) assert(bool, string) {}

// assertEmpty states that w's own deque is empty, which the hermescheck
// build reports; this build inlines it away without reading the deque.
func (w *worker) assertEmpty(string) {}
