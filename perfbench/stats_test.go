package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileEmpty(t *testing.T) {
	p := percentile(nil, 99)
	if p.OK || p.N != 0 || p.Value != 0 {
		t.Fatalf("empty input: got %+v, want not OK with N=0", p)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	p := percentile([]float64{7}, 50)
	if p.OK || p.N != 1 {
		t.Fatalf("one sample has no tail of %d: got %+v", tailSamples, p)
	}
}

func TestPercentileNeedsTailSamples(t *testing.T) {
	// With n = tailSamples no rank leaves tailSamples samples beyond it;
	// one more sample makes the minimum (rank 1) reportable.
	if p := percentile(seq(tailSamples), 50); p.OK {
		t.Fatalf("n=%d: got %+v, want not OK", tailSamples, p)
	}
	p := percentile(seq(tailSamples+1), 50)
	if !p.OK || p.Value != 1 || p.N != tailSamples+1 {
		t.Fatalf("n=%d: got %+v, want OK at value 1", tailSamples+1, p)
	}
}

func TestPercentileExactRankBoundaries(t *testing.T) {
	for _, c := range []struct {
		n, want, p int
		value      float64
	}{
		// p99 of 1000: rank 990 leaves exactly 10 beyond.
		{1000, 99, 99, 990},
		// p99 of 999: rank ceil(989.01) = 990 leaves 9; p98 has rank 980.
		{999, 99, 98, 980},
		// p99 of 1010: rank ceil(999.9) = 1000 leaves 10.
		{1010, 99, 99, 1000},
		// p50 of 20: rank 10 leaves exactly 10.
		{20, 50, 50, 10},
		// p50 of 19: rank 10 leaves 9; p47 has rank ceil(8.93) = 9 and 10 beyond.
		{19, 50, 47, 9},
		// p50 of 100 is the 50th sample.
		{100, 50, 50, 50},
	} {
		got := percentile(seq(c.n), c.want)
		if !got.OK || got.P != c.p || got.Value != c.value || got.N != c.n || got.Want != c.want {
			t.Errorf("n=%d want p%d: got %+v, want p%d value %v", c.n, c.want, got, c.p, c.value)
		}
	}
}

func TestNearestRankClamps(t *testing.T) {
	if r := nearestRank(0, 5); r != 1 {
		t.Errorf("rank of p0 = %d, want 1", r)
	}
	if r := nearestRank(100, 5); r != 5 {
		t.Errorf("rank of p100 = %d, want 5", r)
	}
}

func TestRatios(t *testing.T) {
	if v := perOp(10, 0); v != 0 {
		t.Errorf("perOp over no ops = %v, want 0", v)
	}
	if v := perOp(10, 4); v != 2.5 {
		t.Errorf("perOp(10, 4) = %v, want 2.5", v)
	}
	if v := pct(1, 0); v != 0 {
		t.Errorf("pct of nothing = %v, want 0", v)
	}
	if v := pct(1, 4); v != 25 {
		t.Errorf("pct(1, 4) = %v, want 25", v)
	}
	if v := median(nil); v != 0 {
		t.Errorf("median of nothing = %v, want 0", v)
	}
	if v := median([]float64{3}); v != 3 {
		t.Errorf("median of one = %v, want 3", v)
	}
	if v := median([]float64{4, 1, 3, 2}); v != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", v)
	}
	if v := mean(nil); v != 0 {
		t.Errorf("mean of nothing = %v, want 0", v)
	}
}

func TestJain(t *testing.T) {
	if v := jain(nil); v != 0 {
		t.Errorf("jain of nothing = %v, want 0", v)
	}
	if v := jain([]int64{5, 5, 5, 5}); v != 1 {
		t.Errorf("jain of an even spread = %v, want 1", v)
	}
	if v := jain([]int64{8, 0, 0, 0}); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("jain of one hot shard = %v, want 1/4", v)
	}
}
