package history

import (
	"cmp"
	"slices"
	"strings"
)

// groupOps partitions a history in one counting pass. keyOf names each
// op's group (ops it reports false for are skipped). Groups come back in
// first-appearance order, each holding pointers into ops in history order,
// all carved from one slab — so the allocations grow with the number of
// groups, not with the number of ops.
func groupOps[K comparable](ops []Op, keyOf func(*Op) (K, bool)) ([]K, [][]*Op) {
	idx := map[K]int{}
	of := make([]int, len(ops))
	var keys []K
	var sizes []int
	total := 0
	for i := range ops {
		k, ok := keyOf(&ops[i])
		if !ok {
			of[i] = -1
			continue
		}
		g, seen := idx[k]
		if !seen {
			g = len(keys)
			idx[k] = g
			keys = append(keys, k)
			sizes = append(sizes, 0)
		}
		of[i] = g
		sizes[g]++
		total++
	}
	slab := make([]*Op, total)
	groups := make([][]*Op, len(keys))
	off := 0
	for g, n := range sizes {
		groups[g] = slab[off : off : off+n]
		off += n
	}
	for i, g := range of {
		if g >= 0 {
			groups[g] = append(groups[g], &ops[i])
		}
	}
	return keys, groups
}

// byStart stable-sorts a group's ops by start time.
func byStart(ops []*Op) {
	slices.SortStableFunc(ops, func(a, b *Op) int { return cmp.Compare(a.Start, b.Start) })
}

// opGroup is one cell of a partition: one client's operations on one
// object (session groups), one client's operations (client groups) or one
// object's operations (key partition).
type opGroup struct {
	client string
	key    string
	ops    []*Op
}

// partitionByKey groups a history's keyed operations by object, keys
// sorted — one pass where a per-key selection would rescan the history
// once per key. Unkeyed operations are skipped.
func partitionByKey(ops []Op) []opGroup {
	keys, groups := groupOps(ops, func(op *Op) (string, bool) { return op.Key, op.Key != "" })
	out := make([]opGroup, len(keys))
	for i, k := range keys {
		out[i] = opGroup{key: k, ops: groups[i]}
	}
	slices.SortFunc(out, func(a, b opGroup) int { return strings.Compare(a.key, b.key) })
	return out
}

// keyedOps selects a key's operations from a history.
func keyedOps(ops []Op, key string) []*Op {
	var out []*Op
	for i := range ops {
		if ops[i].Key == key {
			out = append(out, &ops[i])
		}
	}
	return out
}
