package par

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestN(t *testing.T) {
	if got := N(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("N(0) = %d, want GOMAXPROCS", got)
	}
	if got := N(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("N(-3) = %d, want GOMAXPROCS", got)
	}
	if got := N(5); got != 5 {
		t.Fatalf("N(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		const n = 1000
		var hits [n]int32
		ForEach(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	// n smaller than workers and n == 0 must be safe.
	var count atomic.Int32
	ForEach(8, 3, func(i int) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatalf("short run executed %d of 3", count.Load())
	}
	ForEach(4, 0, func(i int) { t.Fatal("fn called for n=0") })
}

func TestChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const n, chunk = 1037, 64
		var hits [n]int32
		Chunks(workers, n, chunk, func(lo, hi int) {
			if hi-lo > chunk || lo >= hi {
				t.Errorf("bad chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, h)
			}
		}
	}
}

func TestDoRunsEveryIndexOnceOnSuccess(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		const n = 1000
		var hits [n]int32
		err := Do(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	if err := Do(context.Background(), 4, 0, func(i int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

// indexErr is the error index i fails with, so a test can tell which
// failure Do returned.
type indexErr int

func (e indexErr) Error() string { return fmt.Sprintf("index %d failed", int(e)) }

func TestDoOneWorkerStopsAtFirstFailure(t *testing.T) {
	const n = 20
	failing := map[int]bool{5: true, 9: true, 13: true}
	var ran []int
	err := Do(context.Background(), 1, n, func(i int) error {
		ran = append(ran, i)
		if failing[i] {
			return indexErr(i)
		}
		return nil
	})
	if err != indexErr(5) {
		t.Fatalf("err = %v, want the lowest failing index's (5)", err)
	}
	if len(ran) != 6 || ran[len(ran)-1] != 5 {
		t.Fatalf("ran %v, want 0..5 in order and nothing after the failure", ran)
	}
	for k, i := range ran {
		if i != k {
			t.Fatalf("ran %v, want index order", ran)
		}
	}
}

// TestDoReturnsLowestFailedIndex: two failing indices run at once and one
// of them, the leader, returns first; Do must return index 0's error
// whichever failure it recorded first.
func TestDoReturnsLowestFailedIndex(t *testing.T) {
	for _, leader := range []int{0, 1} {
		for rep := 0; rep < 100; rep++ {
			var in [2]chan struct{}
			in[0], in[1] = make(chan struct{}), make(chan struct{})
			out := make(chan struct{})
			err := Do(context.Background(), 2, 2, func(i int) error {
				close(in[i])
				<-in[1-i]
				if i == leader {
					close(out)
				} else {
					<-out
				}
				return indexErr(i)
			})
			if err != indexErr(0) {
				t.Fatalf("leader %d, rep %d: err = %v, want index 0's", leader, rep, err)
			}
		}
	}
}

func TestDoDoneContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 7} {
		err := Do(ctx, workers, 100, func(i int) error {
			t.Errorf("workers=%d: index %d ran under a done context", workers, i)
			return nil
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want ctx.Err()", workers, err)
		}
	}
}

func TestDoCancelStopsLaterIndices(t *testing.T) {
	const n, k = 30, 11
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	err := Do(ctx, 1, n, func(i int) error {
		ran = append(ran, i)
		if i == k {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != k+1 || ran[k] != k {
		t.Fatalf("ran %v, want 0..%d and nothing after the cancel", ran, k)
	}
}
