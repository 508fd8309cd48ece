// Package locks exercises the lockcheck analyzer: guarded fields accessed
// with and without the documented mutex, the *Locked naming convention,
// constructor exemption, and an audited (suppressed) access.
package locks

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	m  int // guarded by mu

	label string // unguarded: never reported
}

// newCounter initializes guarded fields before the value is shared.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

// inc holds the lock: fine.
func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.m++
}

// get reads a guarded field lock-free.
func (c *counter) get() int {
	return c.n // want "guarded by mu, but get accesses it"
}

// sumLocked relies on the caller-holds-the-lock convention.
func (c *counter) sumLocked() int {
	return c.n + c.m
}

// rename touches only the unguarded field.
func (c *counter) rename(s string) {
	c.label = s
}

// reset is an audited single-threaded phase.
func (c *counter) reset() {
	c.n = 0 //bigmap:lock-ok setup phase runs before any goroutine starts
}
