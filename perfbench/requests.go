package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"time"
)

// outcomeKind classifies how a request ended.
type outcomeKind uint8

const (
	// outOK: every op of the request completed.
	outOK outcomeKind = iota
	// outRefused: the system refused or timed the request out, an outcome
	// the workload's model allows (admission rejection under overload, an
	// op timeout across a partition). It counts against served_pct and
	// goodput, never as a benchmark failure.
	outRefused
	// outUnexpected: any other error. The correctness gate fails the run.
	outUnexpected
)

// request is one unit of client work as the benchmark saw it: a single
// operation in the closed-loop workloads, a three-op session in the
// open-loop one. Instants are absolute model time; noView marks a view
// that never arrived.
type request struct {
	// Due is when the request was due: the invoke instant for a closed
	// loop, the scheduled arrival for an open loop. Latencies count from it.
	Due time.Duration
	// WeakAt is the delivery instant of the preliminary (LevelWeak) view
	// of the request's ICG op.
	WeakAt time.Duration
	// FinalAt is the delivery instant of the request's last final view.
	FinalAt time.Duration
	// Ops is the number of ops the request issues when nothing fails;
	// Done is how many of them completed.
	Ops, Done int32
	Outcome   outcomeKind
	// Group is the population the request belongs to (workload-defined).
	Group uint8
}

const noView time.Duration = -1

// tally is the honest accounting over a request log.
type tally struct {
	// Requests attempted, and those that ended refused or in error.
	Requests, Failed int64
	// DoneOps is every op that completed, whatever became of its request.
	DoneOps int64
	// GoodOps counts the ops of requests that completed without error and
	// whose final views all arrived within the latency limit of Due.
	GoodOps int64
	// WastedOps counts completed ops that belonged to requests that later
	// failed: work the system did and no client could use.
	WastedOps int64
	// Unexpected counts requests that ended in an error the workload does
	// not allow.
	Unexpected int64
}

// account tallies a request log against the model-time latency limit.
func account(reqs []request, limit time.Duration) tally {
	var t tally
	for i := range reqs {
		r := &reqs[i]
		t.Requests++
		t.DoneOps += int64(r.Done)
		if r.Outcome != outOK {
			t.Failed++
			t.WastedOps += int64(r.Done)
			if r.Outcome == outUnexpected {
				t.Unexpected++
			}
			continue
		}
		if r.FinalAt != noView && r.FinalAt-r.Due <= limit {
			t.GoodOps += int64(r.Ops)
		}
	}
	return t
}

// servedPct is the share of attempted requests that completed.
func (t tally) servedPct() float64 { return pct(t.Requests-t.Failed, t.Requests) }

// wastedPct is the share of completed ops spent on failed requests.
func (t tally) wastedPct() float64 { return pct(t.WastedOps, t.DoneOps) }

// latencies returns the weak and final latencies of the log in model
// milliseconds, sorted. Failed requests contribute their preliminary view
// (it was served) but no final.
func latencies(reqs []request) (weak, final []float64) {
	for i := range reqs {
		r := &reqs[i]
		if r.WeakAt != noView {
			weak = append(weak, ms(r.WeakAt-r.Due))
		}
		if r.Outcome == outOK && r.FinalAt != noView {
			final = append(final, ms(r.FinalAt-r.Due))
		}
	}
	return sortedCopy(weak), sortedCopy(final)
}

// ms converts model time to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest accumulates a fingerprint of a run's model-time outputs. Two runs
// of one seed must produce the same digest, traced or not.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) bytes(b []byte) {
	d.int(int64(len(b)))
	d.h.Write(b)
}

func (d *digest) requests(reqs []request) {
	d.int(int64(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		d.int(int64(r.Due))
		d.int(int64(r.WeakAt))
		d.int(int64(r.FinalAt))
		d.int(int64(r.Ops)<<32 | int64(r.Done))
		d.int(int64(r.Outcome)<<8 | int64(r.Group))
	}
}

func (d *digest) sum() [sha256.Size]byte {
	var out [sha256.Size]byte
	copy(out[:], d.h.Sum(nil))
	return out
}
