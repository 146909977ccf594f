package netsim

import (
	"testing"
	"time"
)

// BenchmarkSchedulerHandoff measures one full round trip between the root
// and an actor (Put wakes the peer, Get parks the caller — two handoffs,
// i.e. two coroutine switches, per iteration). This is the unit cost every
// blocking operation in the simulation pays.
func BenchmarkSchedulerHandoff(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Put(tok)
		pong.Get()
	}
	b.StopTimer()
	ping.Put(nil)
	c.Drain()
}

// BenchmarkAsyncSend compares the two ways to deliver a fire-and-forget
// simulated message: the callback-timer path Transport.Send now uses
// (no actor, no coroutine switch) against the actor-per-message shape it
// replaced (spawn an actor, sleep the delay, run the delivery). Both
// sub-benchmarks drain in batches so the timer heap stays warm and
// bounded, and both report measured actor spawns per message.
func BenchmarkAsyncSend(b *testing.B) {
	const batch = 1024
	run := func(b *testing.B, wantSpawnsPerOp uint64, send func(c *VirtualClock, tr *Transport, fn func())) {
		c := NewVirtualClock()
		tr := NewTransport(c, DefaultLatencies(), NewMeter(), 1)
		delivered := 0
		fn := func() { delivered++ }
		spawnedBefore := c.Spawned()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send(c, tr, fn)
			if i%batch == batch-1 {
				c.Drain()
			}
		}
		c.Drain()
		b.StopTimer()
		if delivered != b.N {
			b.Fatalf("delivered %d of %d messages", delivered, b.N)
		}
		spawns := c.Spawned() - spawnedBefore
		if spawns != wantSpawnsPerOp*uint64(b.N) {
			b.Fatalf("spawned %d actors over %d messages, want %d/op", spawns, b.N, wantSpawnsPerOp)
		}
		b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
	}

	b.Run("callback", func(b *testing.B) {
		run(b, 0, func(c *VirtualClock, tr *Transport, fn func()) {
			tr.Send(IRL, FRK, LinkReplica, 64, fn)
		})
	})
	b.Run("goroutine-baseline", func(b *testing.B) {
		// The original shape of Transport.Send: one actor per message,
		// which sleeps the delay and then delivers.
		run(b, 1, func(c *VirtualClock, tr *Transport, fn func()) {
			tr.Meter().Account(LinkReplica, 64)
			d := tr.sample(IRL, FRK)
			c.Go(func() {
				c.Sleep(d)
				fn()
			})
		})
	})
}

// BenchmarkTimerHeap measures raw arm+fire throughput of the callback
// timer queue at a large outstanding-timer count, the regime a
// million-actor run puts the scheduler in.
func BenchmarkTimerHeap(b *testing.B) {
	c := NewVirtualClock()
	fn := func() {}
	// Keep 64k timers outstanding so push/pop work at realistic depth.
	const depth = 1 << 16
	for i := 0; i < depth; i++ {
		c.RunAfter(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunAfter(time.Duration(depth)*time.Microsecond, fn)
		if i%depth == depth-1 {
			c.Drain()
			for j := 0; j < depth; j++ {
				c.RunAfter(time.Duration(j)*time.Microsecond, fn)
			}
		}
	}
	b.StopTimer()
	c.Drain()
}
