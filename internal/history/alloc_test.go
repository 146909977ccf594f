//go:build !race

package history

import "testing"

// TestAllocGateHistorySerialize: serializing a history writes one buffer
// sized up front, so the allocation count is the same whatever the op
// count.
func TestAllocGateHistorySerialize(t *testing.T) {
	allocs := func(n int) float64 {
		ops := syntheticRegisters(n, 8, 8)
		return testing.AllocsPerRun(5, func() { SerializeOps(ops) })
	}
	small, large := allocs(100), allocs(10_000)
	if small != large || large > 1 {
		t.Fatalf("SerializeOps allocs: %v at 100 ops, %v at 10k ops; want one per call at any size", small, large)
	}
}

// TestAllocGateHistorySessionGroups: the session checkers group ops by
// pointer from one slab, so with the (client, key) groups fixed the
// allocation count must not move as the groups fill up.
func TestAllocGateHistorySessionGroups(t *testing.T) {
	allocs := func(n int) float64 {
		ops := syntheticRegisters(n, 8, 8) // 64 session groups once n >= 64
		return testing.AllocsPerRun(5, func() { CheckSessionGuarantees(ops) })
	}
	small, large := allocs(1_000), allocs(16_000)
	if small != large {
		t.Fatalf("CheckSessionGuarantees allocs: %v at 1k ops, %v at 16k ops over the same 64 groups; want equal", small, large)
	}
	t.Logf("CheckSessionGuarantees: %v allocs over 64 groups", large)
}
