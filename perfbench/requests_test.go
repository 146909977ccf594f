package main

import (
	"testing"
	"time"
)

// A hand-built session log: four three-op sessions, due at 0.
//   - s0 completed within the limit: 3 good ops.
//   - s1 completed, but its last final came after the limit: served, not good.
//   - s2 was refused on its read after its put completed: 1 wasted op.
//   - s3 was refused on its first op: nothing executed, nothing wasted.
func sessionLog() []request {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	return []request{
		{Due: 0, WeakAt: ms(100), FinalAt: ms(200), Ops: 3, Done: 3, Outcome: outOK},
		{Due: 0, WeakAt: ms(150), FinalAt: ms(300), Ops: 3, Done: 3, Outcome: outOK},
		{Due: 0, WeakAt: noView, FinalAt: noView, Ops: 3, Done: 1, Outcome: outRefused},
		{Due: 0, WeakAt: noView, FinalAt: noView, Ops: 3, Done: 0, Outcome: outRefused},
	}
}

func TestAccountSessions(t *testing.T) {
	got := account(sessionLog(), 250*time.Millisecond)
	want := tally{Requests: 4, Failed: 2, DoneOps: 7, GoodOps: 3, WastedOps: 1}
	if got != want {
		t.Fatalf("account = %+v, want %+v", got, want)
	}
	if v := got.servedPct(); v != 50 {
		t.Errorf("servedPct = %v, want 50", v)
	}
	if v := got.wastedPct(); v != 100.0/7 {
		t.Errorf("wastedPct = %v, want %v", v, 100.0/7)
	}
	if got.GoodOps > got.DoneOps {
		t.Errorf("goodput ops %d exceed served ops %d", got.GoodOps, got.DoneOps)
	}
}

func TestAccountLimitIsInclusive(t *testing.T) {
	reqs := []request{{Due: time.Second, WeakAt: noView, FinalAt: time.Second + 250*time.Millisecond, Ops: 1, Done: 1}}
	if got := account(reqs, 250*time.Millisecond); got.GoodOps != 1 {
		t.Fatalf("a final exactly at the limit should count: %+v", got)
	}
}

func TestAccountUnexpected(t *testing.T) {
	reqs := []request{{Ops: 1, Outcome: outUnexpected, WeakAt: noView, FinalAt: noView}}
	got := account(reqs, time.Second)
	if got.Unexpected != 1 || got.Failed != 1 {
		t.Fatalf("account = %+v, want one unexpected failure", got)
	}
}

func TestAccountEmpty(t *testing.T) {
	got := account(nil, time.Second)
	if got != (tally{}) || got.servedPct() != 0 || got.wastedPct() != 0 {
		t.Fatalf("empty log: %+v", got)
	}
}

func TestLatenciesCountFromDue(t *testing.T) {
	weak, final := latencies(sessionLog())
	if len(weak) != 2 || weak[0] != 100 || weak[1] != 150 {
		t.Errorf("weak = %v, want [100 150]", weak)
	}
	if len(final) != 2 || final[0] != 200 || final[1] != 300 {
		t.Errorf("final = %v, want [200 300]", final)
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := sessionLog()
	sum := func(reqs []request) [32]byte {
		d := newDigest()
		d.requests(reqs)
		return d.sum()
	}
	ref := sum(base)
	for i, mutate := range []func(*request){
		func(r *request) { r.Due++ },
		func(r *request) { r.WeakAt++ },
		func(r *request) { r.FinalAt++ },
		func(r *request) { r.Done++ },
		func(r *request) { r.Outcome = outUnexpected },
		func(r *request) { r.Group++ },
	} {
		reqs := sessionLog()
		mutate(&reqs[0])
		if sum(reqs) == ref {
			t.Errorf("mutation %d left the digest unchanged", i)
		}
	}
}
