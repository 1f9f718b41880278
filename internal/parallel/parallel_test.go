package parallel

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"dpkron/internal/randx"
)

func TestNormalizeResolution(t *testing.T) {
	if Normalize(4) != 4 {
		t.Fatal("explicit worker count not honoured")
	}
	if Normalize(0) < 1 || Normalize(-3) < 1 {
		t.Fatal("default worker count must be >= 1")
	}
}

func TestBlocksCoverAndPartition(t *testing.T) {
	for _, tc := range []struct{ n, count int }{
		{10, 3}, {1, 1}, {5, 64}, {64, 64}, {1000, 7}, {3, 1},
	} {
		blocks := Blocks(tc.n, tc.count)
		prev := 0
		for _, b := range blocks {
			if b.Lo != prev || b.Hi <= b.Lo {
				t.Fatalf("Blocks(%d,%d): bad block %+v after %d", tc.n, tc.count, b, prev)
			}
			prev = b.Hi
		}
		if prev != tc.n {
			t.Fatalf("Blocks(%d,%d) cover ends at %d", tc.n, tc.count, prev)
		}
	}
	if Blocks(0, 4) != nil {
		t.Fatal("Blocks(0, _) should be nil")
	}
}

func TestPairBlocksBalanced(t *testing.T) {
	n, count := 4096, 16
	blocks := PairBlocks(n, count)
	prev := 0
	total := int64(n) * int64(n-1) / 2
	want := total / int64(count)
	for _, b := range blocks {
		if b.Lo != prev {
			t.Fatalf("gap before %+v", b)
		}
		prev = b.Hi
		pairs := int64(b.Hi)*int64(b.Hi-1)/2 - int64(b.Lo)*int64(b.Lo-1)/2
		// Balanced within 2x of the ideal share (boundaries are rows).
		if pairs > 2*want+int64(n) {
			t.Errorf("block %+v has %d pairs, ideal %d", b, pairs, want)
		}
	}
	if prev != n {
		t.Fatalf("cover ends at %d, want %d", prev, n)
	}
}

func TestPairBlocksTiny(t *testing.T) {
	for n := 1; n <= 5; n++ {
		blocks := PairBlocks(n, 64)
		last := 0
		for _, b := range blocks {
			if b.Lo != last {
				t.Fatalf("n=%d: gap at %+v", n, b)
			}
			last = b.Hi
		}
		if last != n {
			t.Fatalf("n=%d: cover ends at %d", n, last)
		}
	}
}

func TestRunVisitsEveryShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const shards = 37
		var hits [shards]atomic.Int32
		if err := RunCtx(context.Background(), workers, shards, func(s int) { hits[s].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for s := range hits {
			if hits[s].Load() != 1 {
				t.Fatalf("workers=%d: shard %d visited %d times", workers, s, hits[s].Load())
			}
		}
	}
}

func TestRunIndexedVisitsEveryShardWithValidWorker(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const shards = 29
		var hits [shards]atomic.Int32
		var badWorker atomic.Bool
		if err := RunIndexedCtx(context.Background(), workers, shards, func(worker, s int) {
			if worker < 0 || worker >= workers {
				badWorker.Store(true)
			}
			hits[s].Add(1)
		}); err != nil {
			t.Fatal(err)
		}
		if badWorker.Load() {
			t.Fatalf("workers=%d: worker index out of range", workers)
		}
		for s := range hits {
			if hits[s].Load() != 1 {
				t.Fatalf("workers=%d: shard %d visited %d times", workers, s, hits[s].Load())
			}
		}
	}
}

func TestSumInt64MatchesSerial(t *testing.T) {
	n := 1000
	want := int64(n) * int64(n-1) / 2 // sum of 0..n-1
	for _, workers := range []int{1, 4, 8} {
		got, err := SumInt64Ctx(context.Background(), workers, n, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		})
		if err != nil || got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

func TestSumFloat64WorkerInvariant(t *testing.T) {
	n := 997
	f := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	base, _ := SumFloat64Ctx(context.Background(), 1, n, f)
	for _, workers := range []int{2, 4, 8, 32} {
		if got, _ := SumFloat64Ctx(context.Background(), workers, n, f); got != base {
			t.Fatalf("workers=%d: %v != %v (must be bit-identical)", workers, got, base)
		}
	}
}

func TestStreamsIndependentOfConsumption(t *testing.T) {
	// Streams derived from equal-seeded parents are identical, and
	// consuming one stream does not affect another.
	a := Streams(randx.New(5), 4)
	b := Streams(randx.New(5), 4)
	a[0].Float64() // consume
	for i := 1; i < 4; i++ {
		if a[i].Float64() != b[i].Float64() {
			t.Fatal("streams are not independent of sibling consumption")
		}
	}
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sum atomic.Int64
		if err := RunCtx(context.Background(), workers, 100, func(s int) { sum.Add(int64(s)) }); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 4950 {
			t.Errorf("workers=%d: sum = %d, want 4950", workers, sum.Load())
		}
	}
	// nil context takes the same fast path.
	ran := 0
	if err := RunCtx(nil, 1, 3, func(int) { ran++ }); err != nil || ran != 3 {
		t.Errorf("nil ctx: ran=%d err=%v", ran, err)
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := atomic.Int64{}
		err := RunCtx(cancelledCtx(), workers, 1000, func(int) { ran.Add(1) })
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d shards ran on a pre-cancelled ctx", workers, ran.Load())
		}
	}
}

func TestRunCtxMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := RunCtx(ctx, 4, 10000, func(s int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Errorf("all %d shards ran despite cancellation", n)
	}
}

func TestRunIndexedCtxPreCancelled(t *testing.T) {
	var ran atomic.Int64
	if err := RunIndexedCtx(cancelledCtx(), 4, 100, func(w, s int) { ran.Add(1) }); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d shards ran", ran.Load())
	}
}

func TestReductionCtxVariantsMatchPlain(t *testing.T) {
	n := 10000
	fI := func(lo, hi int) int64 { return int64(hi - lo) }
	fF := func(lo, hi int) float64 { return float64(hi-lo) * 1.5 }
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, workers := range []int{1, 4} {
		si, err := SumInt64Ctx(live, workers, n, fI)
		if want, _ := SumInt64Ctx(context.Background(), workers, n, fI); err != nil || si != want {
			t.Errorf("SumInt64Ctx = %d, %v", si, err)
		}
		sf, err := SumFloat64Ctx(live, workers, n, fF)
		if want, _ := SumFloat64Ctx(context.Background(), workers, n, fF); err != nil || sf != want {
			t.Errorf("SumFloat64Ctx = %v, %v", sf, err)
		}
	}
	if _, err := SumInt64Ctx(cancelledCtx(), 2, n, fI); err != context.Canceled {
		t.Errorf("SumInt64Ctx pre-cancelled err = %v", err)
	}
	if _, err := SumFloat64Ctx(cancelledCtx(), 2, n, fF); err != context.Canceled {
		t.Errorf("SumFloat64Ctx pre-cancelled err = %v", err)
	}
	if err := ForBlocksCtx(cancelledCtx(), 2, n, func(s, lo, hi int) {}); err != context.Canceled {
		t.Errorf("ForBlocksCtx pre-cancelled err = %v", err)
	}
}

func TestSortInt64CtxMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, n := range []int{0, 10, 1000, 1 << 16} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63()
		}
		want := append([]int64(nil), keys...)
		SortInt64Ctx(context.Background(), 2, want, nil)

		got := append([]int64(nil), keys...)
		if _, err := SortInt64Ctx(live, 2, got, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: ctx sort diverged", n)
		}
		// Serial ctx path too.
		got2 := append([]int64(nil), keys...)
		if _, err := SortInt64Ctx(live, 1, got2, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got2, want) {
			t.Fatalf("n=%d: serial ctx sort diverged", n)
		}
	}
}

func TestSortInt64CtxPreCancelled(t *testing.T) {
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(len(keys) - i)
	}
	if _, err := SortInt64Ctx(cancelledCtx(), 4, keys, nil); err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
}
