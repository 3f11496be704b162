package faults

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Decision is the fate of one in-flight transport message.
type Decision struct {
	Drop  bool          // lose the message
	Dup   bool          // deliver it twice
	Reset bool          // tear the whole link down instead of delivering
	Extra time.Duration // additional one-way delay
}

// Transport draws seeded per-message chaos decisions for a simulated session
// pipe from a Plan's link fields: drop, duplicate, delay, reset. Decide is
// safe for concurrent use.
type Transport struct {
	// Counters of injected faults, readable after a run.
	Drops, Dups, Resets int

	mu   sync.Mutex
	rng  *rand.Rand
	plan Plan
}

// NewTransport returns a Transport applying plan, drawing from plan.Seed.
func NewTransport(plan Plan) *Transport {
	return &Transport{rng: rand.New(rand.NewSource(plan.Seed)), plan: plan}
}

// Decide draws the fate of one message. Reset preempts drop and duplicate.
func (t *Transport) Decide() Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.plan.ResetProb > 0 && t.rng.Float64() < t.plan.ResetProb {
		t.Resets++
		return Decision{Reset: true}
	}
	if t.plan.DropProb > 0 && t.rng.Float64() < t.plan.DropProb {
		t.Drops++
		return Decision{Drop: true}
	}
	var d Decision
	if t.plan.DupProb > 0 && t.rng.Float64() < t.plan.DupProb {
		t.Dups++
		d.Dup = true
	}
	if t.plan.MaxOpDelay > 0 {
		d.Extra = time.Duration(t.rng.Int63n(int64(t.plan.MaxOpDelay)))
	}
	return d
}

// Conn wraps a live net.Conn with a Plan's connection faults: a random
// delay before each read and write and spontaneous resets (the conn is
// closed and the op fails with ErrInjected). It exists so bgpcollect -chaos
// can batter its own dial and backoff paths against a cooperative peer
// without external tooling.
type Conn struct {
	net.Conn

	mu   sync.Mutex
	rng  *rand.Rand
	plan Plan
}

// NewConn wraps c: each Read/Write first sleeps a uniform random duration in
// [0, plan.MaxOpDelay), then with probability plan.ResetProb closes the
// connection and fails with ErrInjected. It draws from plan.Seed^salt, so
// conns wrapped under one plan with distinct salts fault independently.
func NewConn(c net.Conn, plan Plan, salt int64) *Conn {
	return &Conn{Conn: c, rng: rand.New(rand.NewSource(plan.Seed ^ salt)), plan: plan}
}

// draw draws one op's delay, then whether it resets the conn.
func (c *Conn) draw() (sleep time.Duration, reset bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan.MaxOpDelay > 0 {
		sleep = time.Duration(c.rng.Int63n(int64(c.plan.MaxOpDelay)))
	}
	return sleep, c.plan.ResetProb > 0 && c.rng.Float64() < c.plan.ResetProb
}

// chaos applies one draw; it reports whether the op should fail after
// closing the conn.
func (c *Conn) chaos() bool {
	sleep, reset := c.draw()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if reset {
		c.Conn.Close()
	}
	return reset
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.chaos() {
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.chaos() {
		return 0, ErrInjected
	}
	return c.Conn.Write(p)
}
