//go:build !race

package netsim

import (
	"testing"
	"time"
)

// TestAllocGateRunAfterSteadyState is the scheduler's allocation-regression
// gate (run by CI without -race): once the timer heap is warm, arming a
// callback timer allocates nothing, and a full arm-dispatch-sleep cycle —
// callback fires, root actor parks and wakes — allocates nothing either. This is what lets million-message runs hold a
// flat heap profile.
func TestAllocGateRunAfterSteadyState(t *testing.T) {
	c := NewVirtualClock()
	fn := func() {}

	// Warm: grow the timer heap past anything AllocsPerRun will push.
	for i := 0; i < 4096; i++ {
		c.RunAfter(time.Millisecond, fn)
	}
	c.Drain()
	c.Sleep(time.Millisecond)

	if got := testing.AllocsPerRun(2000, func() {
		c.RunAfter(time.Millisecond, fn)
	}); got != 0 {
		t.Errorf("RunAfter steady-state allocs/op = %v, want 0", got)
	}
	c.Drain()

	if got := testing.AllocsPerRun(2000, func() {
		c.RunAfter(time.Millisecond, fn)
		c.Sleep(2 * time.Millisecond)
	}); got != 0 {
		t.Errorf("RunAfter+Sleep cycle allocs/op = %v, want 0", got)
	}
}

// TestAllocGateQueueHandoff: a warm ready-queue handoff (Put to a waiting
// actor, a round trip through the dispatcher) must not allocate on the
// scheduler's side. The
// single allocation budgeted here is the interface boxing of the queue
// item itself, which belongs to the caller's payload, not the scheduler —
// struct{}{} boxes for free.
func TestAllocGateQueueHandoff(t *testing.T) {
	c := NewVirtualClock()
	ping, pong := c.NewQueue(), c.NewQueue()
	c.Go(func() {
		for {
			if ping.Get() == nil {
				return
			}
			pong.Put(struct{}{})
		}
	})
	tok := struct{}{}
	// Warm both waiter paths and the ready set.
	for i := 0; i < 64; i++ {
		ping.Put(tok)
		pong.Get()
	}
	if got := testing.AllocsPerRun(2000, func() {
		ping.Put(tok)
		pong.Get()
	}); got != 0 {
		t.Errorf("queue handoff allocs/op = %v, want 0", got)
	}
	ping.Put(nil)
	c.Drain()
}

// TestAllocGateSpawnExit: once the worker pool holds an idle worker, a Go
// plus the actor's exit allocates nothing — the actor runs on the pooled
// coroutine and hands it back when it returns.
func TestAllocGateSpawnExit(t *testing.T) {
	c := NewVirtualClock()
	fn := func() {}
	for i := 0; i < 64; i++ {
		c.Go(fn)
	}
	c.Drain()
	if got := testing.AllocsPerRun(2000, func() {
		c.Go(fn)
		c.Drain()
	}); got != 0 {
		t.Errorf("Go+exit allocs/op = %v, want 0", got)
	}
}

// TestAllocGateSleepHandoff: two actors sleeping in lockstep hand the
// dispatcher back and forth through the timer heap without allocating.
func TestAllocGateSleepHandoff(t *testing.T) {
	c := NewVirtualClock()
	stop := false
	tick := func() {
		for !stop {
			c.Sleep(time.Millisecond)
		}
	}
	c.Go(tick)
	c.Go(tick)
	for i := 0; i < 64; i++ {
		c.Sleep(time.Millisecond)
	}
	if got := testing.AllocsPerRun(2000, func() {
		c.Sleep(time.Millisecond)
	}); got != 0 {
		t.Errorf("Sleep handoff allocs/op = %v, want 0", got)
	}
	stop = true
	c.Drain()
}
