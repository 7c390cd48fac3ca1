// Fixture for the allowaudit analyzer: every //lint:allow must be
// well-formed (known analyzer, real reason) and must still suppress a
// live finding on its line or the line below.
package allowaudit

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

// justified: the allow sits directly above a live locksend finding, so
// it earns its keep and allowaudit stays silent about it.
func (b *box) justified() {
	b.mu.Lock()
	//lint:allow locksend fixture: the receiver is drained by a dedicated goroutine and the buffer bounds the send
	b.ch <- 1
	b.mu.Unlock()
}

// fixedLongAgo: the send no longer happens under the lock — the hazard
// this allow excused was refactored away, so the annotation is stale.
func (b *box) fixedLongAgo() {
	//lint:allow locksend the send used to happen under b.mu // want `stale //lint:allow locksend`
	b.ch <- 1
}

// A suppression without a reason is indistinguishable from a silenced
// finding; the trailing comment below is not a reason.
//
//lint:allow maporder // want `reason-less //lint:allow`
func bare() {}

// A typoed analyzer name suppresses nothing.
//
//lint:allow maporedr iteration order does not matter here // want `unknown analyzer "maporedr" in //lint:allow: it suppresses nothing \(known: determinism, maporder, locksend, erradrift, golifecycle, atomicmix, allowaudit\)`
func typo() {}
