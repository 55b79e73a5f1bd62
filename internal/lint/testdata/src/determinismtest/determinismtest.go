// Package determinismtest seeds one violation of each determinism class the
// analyzer must catch, plus the allowed patterns it must stay quiet on.
package determinismtest

import (
	"math/rand"
	"time"
)

type queue struct{}

func (q *queue) Put(v any) {}

func clocks() time.Duration {
	t0 := time.Now()             // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	return time.Since(t0)        // want `time\.Since reads the wall clock`
}

func allowed() time.Duration {
	//lint:wallclock fixture real-mode env: wall time is this clock
	return time.Since(time.Time{})
}

func unjustified() {
	//lint:wallclock
	time.Sleep(1) // want `marker needs a justification`
}

func prng() int {
	r := rand.New(rand.NewSource(7)) // explicitly seeded: deterministic, allowed
	_ = r.Intn(4)
	return rand.Intn(10) // want `math/rand\.Intn draws from the global PRNG`
}

func fanout(q *queue, m map[string]int) {
	for k := range m {
		q.Put(k) // want `Put inside a range over a map`
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // collecting keys to sort is the approved shape
	}
	_ = keys
}

type conn struct{}

func (c *conn) Close() {}

// teardown: closing a connection sends a FIN and closing a queue wakes its
// waiters, so teardown in map order is as visible as a send in map order.
func teardown(conns map[string]*conn) {
	for _, c := range conns {
		c.Close() // want `Close inside a range over a map`
	}
}

type mailbox struct{}

func (mb *mailbox) Post(dst int, v any) {}

// mergeFanout covers the S22 shard-merge extension of the map-range rule:
// cross-shard posts carry (time, node, seq) merge keys assigned in issue
// order, so issuing them in map order diverges replays.
func mergeFanout(mb *mailbox, m map[int]int) {
	for dst := range m {
		mb.Post(dst, 1) // want `Post inside a range over a map`
	}
}

// selects covers the S22 multi-case select rule: with several ready cases the
// runtime chooses uniformly at random.
func selects(a, b chan int) int {
	select { // want `select with 2 cases resolves ready cases by runtime coin flip`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// singleCaseSelect is the allowed shape: one case is deterministic.
func singleCaseSelect(a chan int) int {
	select {
	case v := <-a:
		return v
	}
}
