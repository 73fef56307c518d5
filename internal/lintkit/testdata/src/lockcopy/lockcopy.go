// Package lockcopy holds the by-value lock copies the locks analyzer
// leaves to go vet: TestVetCopyLocksFixture runs `go vet -copylocks` on
// this package and demands a vet diagnostic on every `// want` line.
package lockcopy

import (
	"sync"
	"sync/atomic"
)

// S is a lock-bearing type: any by-value copy of it is a finding.
type S struct {
	mu sync.Mutex
	n  int
}

// Striped mirrors the striped-lock table shape: the lock sits two
// levels deep, through an array of structs.
type Striped struct {
	shards [4]S
}

// Counter holds a sync/atomic value rather than a mutex.
type Counter struct {
	hits atomic.Int64
}

func byValueParam(s S) int { // want "passes lock by value"
	return s.n
}

func (s S) byValueMethod() int { // want "passes lock by value"
	return s.n
}

func stripedParam(t Striped) int { // want "passes lock by value"
	return t.shards[0].n
}

func copyAssign(a *S) int {
	b := *a // want "assignment copies lock value"
	return b.n
}

func rangeCopy(ss []S) int {
	n := 0
	for _, s := range ss { // want "range var s copies lock"
		n += s.n
	}
	return n
}

func atomicParam(c Counter) int64 { // want "passes lock by value"
	return c.hits.Load()
}

func pointerParamOK(s *S, c *Counter) int {
	return s.n + int(c.hits.Load())
}

var _ = []any{byValueParam, S.byValueMethod, stripedParam, copyAssign, rangeCopy, atomicParam, pointerParamOK}
