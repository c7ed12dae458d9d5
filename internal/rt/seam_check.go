//go:build hermescheck

package rt

// seam attaches a worker to the interleaving checker that drives it;
// ctl is nil on a worker that runs free.
type seam struct {
	ctl interface {
		yield(*worker, site)
		broken(what string)
	}
}

// yield lets the checker run another worker before this one takes
// step s.
func (w *worker) yield(s site) {
	if w.seam.ctl != nil {
		w.seam.ctl.yield(w, s)
	}
}

// assert reports a broken invariant to the checker driving w.
func (w *worker) assert(ok bool, what string) {
	if !ok && w.seam.ctl != nil {
		w.seam.ctl.broken(what)
	}
}

// assertEmpty reports to the checker driving w a task on w's own
// deque where the caller passes that deque's size as 0.
func (w *worker) assertEmpty(what string) { w.assert(w.dq.Size() == 0, what) }
