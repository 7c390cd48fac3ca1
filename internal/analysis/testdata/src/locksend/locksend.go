// Fixture for the locksend analyzer: a mutex must not be held across a
// blocking channel operation or blocking I/O.
package locksend

import (
	"bufio"
	"sync"
	"time"
)

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	val  int
	wg   sync.WaitGroup
	cond *sync.Cond
}

// sendUnderLock is the outbox deadlock shape.
func (b *box) sendUnderLock() {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while holding b\.mu`
	b.mu.Unlock()
}

// sendAfterUnlock drains outside the critical section: correct.
func (b *box) sendAfterUnlock() {
	b.mu.Lock()
	b.val++
	b.mu.Unlock()
	b.ch <- 1
}

// deferredUnlockSend: a deferred unlock holds to function end, so the
// send is under the lock.
func (b *box) deferredUnlockSend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1 // want `channel send while holding b\.mu`
}

// nonBlockingSelect: a select with a default clause cannot block.
func (b *box) nonBlockingSelect() {
	b.mu.Lock()
	select {
	case b.ch <- 1:
	default:
		b.val++
	}
	b.mu.Unlock()
}

// recvUnderLock blocks on a receive while holding a read lock.
func (b *box) recvUnderLock() int {
	b.rw.RLock()
	v := <-b.ch // want `channel receive while holding b\.rw`
	b.rw.RUnlock()
	return v
}

// sleepUnderLock stalls every other contender for the duration.
func (b *box) sleepUnderLock() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding b\.mu`
	b.mu.Unlock()
}

// flushUnderLock blocks on I/O (a stalled peer) under the lock.
func (b *box) flushUnderLock(w *bufio.Writer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	w.Flush() // want `blocking bufio Flush while holding b\.mu`
}

// goroutineIsSeparate: the literal runs on its own goroutine with its
// own lock discipline; the outer lock does not extend into it.
func (b *box) goroutineIsSeparate() {
	b.mu.Lock()
	go func() {
		b.ch <- 1
	}()
	b.mu.Unlock()
}

// rangeChanUnderLock blocks on every iteration.
func (b *box) rangeChanUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.ch { // want `range over channel while holding b\.mu`
		b.val += v
	}
}

// waitGroupUnderLock: the finding names the WaitGroup.
func (b *box) waitGroupUnderLock() {
	b.mu.Lock()
	b.wg.Wait() // want `sync\.WaitGroup\.Wait while holding b\.mu`
	b.mu.Unlock()
}

// condWaitUnderLock: the finding names the Cond, not a WaitGroup.
func (b *box) condWaitUnderLock() {
	b.mu.Lock()
	b.cond.Wait() // want `sync\.Cond\.Wait while holding b\.mu`
	b.mu.Unlock()
}
