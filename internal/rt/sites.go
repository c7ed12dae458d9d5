package rt

// site names a synchronization step of the fork-join protocol: each is
// one atomic step to the interleaving checker (go test -tags
// hermescheck), which may run another worker before it. A deque
// operation is one step, since Chase–Lev is linearizable (Lê et al.,
// PPoPP 2013).
type site uint8

const (
	sitePush   site = iota // the owner's deque Push
	sitePop                // the owner's deque Pop
	siteSteal              // a thief's deque Steal
	siteResult             // a Fork2 runner's res store
	siteCount              // an atomic on a block's done
	siteWake               // the send to the owner's wake channel
	sitePark               // the receive from the joiner's wake channel
)
