package history

import (
	"fmt"
	"testing"
	"time"

	"correctables/internal/core"
)

// syntheticRegisters builds a deterministic, clean register history of n
// ops: op i starts at i·10ms and runs 25ms (so neighbours overlap), its
// client is i mod clients and its key (i / clients) mod keys. Every third
// op is a put that installs the next value of one store-wide version
// counter at its start; every other op is a get whose weak and strong
// views return the key's version at its start. Linearizing each op at its
// start explains the history, and the counter keeps every session and
// cross-object guarantee.
func syntheticRegisters(n, keys, clients int) []Op {
	ops := make([]Op, n)
	current := make([]uint64, keys)
	var counter uint64
	for i := range ops {
		start := time.Duration(i) * 10 * time.Millisecond
		end := start + 25*time.Millisecond
		k := (i / clients) % keys
		op := Op{
			ID: uint64(i / clients), Client: fmt.Sprintf("c%03d", i%clients),
			Key: fmt.Sprintf("k%03d", k), Start: start, End: end, Done: true,
		}
		if i%3 == 0 {
			counter++
			current[k] = counter
			op.Name, op.Mutating = "put", true
			op.Views = []View{{Level: core.LevelStrong, Final: true, Version: counter, At: end}}
		} else {
			op.Name = "get"
			op.Views = []View{
				{Level: core.LevelWeak, Version: current[k], At: start + 5*time.Millisecond},
				{Level: core.LevelStrong, Final: true, Version: current[k], At: end},
			}
		}
		ops[i] = op
	}
	return ops
}

// syntheticQueues builds a deterministic, clean FIFO history of n ops laid
// out like syntheticRegisters: every other op enqueues a fresh element,
// the rest dequeue the queue's head at their start (an empty observation
// when there is none). Version tokens come from one counter in start
// order, as zk's zxids would.
func syntheticQueues(n, queues, clients int) []Op {
	ops := make([]Op, n)
	contents := make([][]string, queues)
	seq := make([]int, queues)
	for i := range ops {
		start := time.Duration(i) * 10 * time.Millisecond
		end := start + 25*time.Millisecond
		q := (i / clients) % queues
		op := Op{
			ID: uint64(i / clients), Client: fmt.Sprintf("c%03d", i%clients),
			Key: fmt.Sprintf("q%03d", q), Mutating: true, Start: start, End: end, Done: true,
		}
		var note string
		if i%2 == 0 {
			seq[q]++
			note = fmt.Sprintf("%s-%010d", op.Key, seq[q])
			contents[q] = append(contents[q], note)
			op.Name = "enqueue"
		} else {
			if len(contents[q]) > 0 {
				note = contents[q][0]
				contents[q] = contents[q][1:]
			}
			op.Name = "dequeue"
		}
		op.Views = []View{{Level: core.LevelStrong, Final: true, Version: uint64(i + 1), At: end, Note: note}}
		ops[i] = op
	}
	return ops
}

// BenchmarkCheckHistory times each checker over 10k-op synthetic register
// and queue histories (40 keys, 100 queues, 64 clients).
func BenchmarkCheckHistory(b *testing.B) {
	histories := []struct {
		name string
		ops  []Op
		lin  func([]Op, int) ([]Violation, []string)
	}{
		{"registers", syntheticRegisters(10_000, 40, 64), CheckRegisters},
		{"queues", syntheticQueues(10_000, 100, 64), CheckQueues},
	}
	for _, h := range histories {
		checks := []struct {
			name string
			run  func([]Op) []Violation
		}{
			{"session", CheckSessionGuarantees},
			{"cross-object", CheckCrossObjectWFR},
			{"causal-cut", CheckCausalCut},
			{"linearize", func(ops []Op) []Violation {
				vs, inconclusive := h.lin(ops, 0)
				if len(inconclusive) > 0 {
					b.Fatalf("%s: inconclusive keys %v", h.name, inconclusive)
				}
				return vs
			}},
		}
		for _, c := range checks {
			b.Run(h.name+"/"+c.name, func(b *testing.B) {
				if vs := c.run(h.ops); len(vs) > 0 {
					b.Fatalf("synthetic history flagged: %v", vs[0])
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.run(h.ops)
				}
			})
		}
		b.Run(h.name+"/serialize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SerializeOps(h.ops)
			}
		})
	}
}
