// Package lockfix exercises every locks-analyzer finding class:
// unbalanced Lock/Unlock pairs. By-value copies live in the lockcopy
// fixture, which go vet checks. The locks analyzer is unscoped, so the
// import path does not matter.
package lockfix

import "sync"

// S pairs a mutex with the counter it guards.
type S struct {
	mu sync.Mutex
	n  int
}

func lockNoUnlock(s *S) {
	s.mu.Lock() // want "no matching Unlock"
	s.n++
}

func lockReturnBetween(s *S, c bool) int {
	s.mu.Lock()
	if c {
		return 1 // want "leaves the lock held"
	}
	s.mu.Unlock()
	return 0
}

func unlockBeforeLock(s *S) {
	s.mu.Unlock()
	s.mu.Lock() // want "only unlocked before"
}

func lockDeferOK(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

// R pairs a read-write mutex with the map it guards.
type R struct {
	mu sync.RWMutex
	m  map[string]int
}

func (r *R) readOK(k string) int {
	r.mu.RLock()
	v := r.m[k]
	r.mu.RUnlock()
	return v
}

func (r *R) readEarlyReturn(k string, skip bool) int {
	r.mu.RLock()
	if skip {
		return 0 // want "leaves the lock held"
	}
	v := r.m[k]
	r.mu.RUnlock()
	return v
}

var _ = []any{lockNoUnlock, lockReturnBetween, unlockBeforeLock, lockDeferOK, (*R).readOK, (*R).readEarlyReturn}
