package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
)

func TestMapOrdering(t *testing.T) {
	// Results land at their index regardless of completion order.
	out, err := Map(context.Background(), 100, func(_ context.Context, i int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // scramble completion order
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 0, func(_ context.Context, i int) (int, error) {
		t.Error("task ran")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 1000, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	// Cancellation must have skipped most of the 1000 tasks.
	if n := ran.Load(); n == 1000 {
		t.Errorf("all %d tasks ran despite early error", n)
	}
}

func TestMapPanicRecovery(t *testing.T) {
	_, err := Map(context.Background(), 8, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 5 || fmt.Sprint(pe.Value) != "kaboom" {
		t.Errorf("panic error = %+v", pe)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 64, func(ctx context.Context, i int) (int, error) {
			once.Do(func() { close(started) })
			<-ctx.Done() // block until cancelled
			return 0, ctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
}

func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, 100, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran on a pre-cancelled context", ran.Load())
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 32
	release := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				<-release // hold the flight open so others must join it
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	// Give every goroutine a chance to reach Do, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	out, err := Map(context.Background(), 50, func(_ context.Context, i int) (int, error) {
		return m.Do(i%10, func() (int, error) { return (i % 10) * 2, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != (i%10)*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if m.Len() != 10 {
		t.Errorf("Len = %d, want 10", m.Len())
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	var m Memo[string, int]
	var calls int
	fail := errors.New("nope")
	for i := 0; i < 2; i++ {
		if _, err := m.Do("k", func() (int, error) { calls++; return 0, fail }); !errors.Is(err, fail) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("failed computation cached: %d calls, want 2", calls)
	}
	// A later success is cached.
	for i := 0; i < 2; i++ {
		v, err := m.Do("k", func() (int, error) { calls++; return 7, nil })
		if err != nil || v != 7 {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if calls != 3 {
		t.Errorf("successful computation not cached: %d calls, want 3", calls)
	}
}

func TestMemoPanicBecomesError(t *testing.T) {
	var m Memo[string, int]
	_, err := m.Do("k", func() (int, error) { panic("ouch") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestWorkersFromContextConfig(t *testing.T) {
	ctx := config.WithContext(context.Background(), config.Config{Workers: 3})
	if w := WorkersFor(ctx); w != 3 {
		t.Errorf("WorkersFor = %d, want 3", w)
	}
	if w := WorkersFor(context.Background()); w < 1 {
		t.Errorf("WorkersFor(bare) = %d, want >= 1", w)
	}
}

// maxConcurrency runs n sleeping tasks under ctx and reports the
// highest number simultaneously inside fn.
func maxConcurrency(t *testing.T, ctx context.Context, n int) int64 {
	t.Helper()
	var cur, max atomic.Int64
	err := ForEach(ctx, n, func(ctx context.Context, i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return max.Load()
}

// TestPoolSizeIsPerContext proves pool state is not shared across
// configurations: a serial context and a 4-worker context, running
// concurrently, each observe exactly their own parallelism.
func TestPoolSizeIsPerContext(t *testing.T) {
	ctxSerial := config.WithContext(context.Background(), config.Config{Workers: 1})
	ctxWide := config.WithContext(context.Background(), config.Config{Workers: 4})
	var wg sync.WaitGroup
	wg.Add(2)
	var serialMax, wideMax int64
	go func() { defer wg.Done(); serialMax = maxConcurrency(t, ctxSerial, 8) }()
	go func() { defer wg.Done(); wideMax = maxConcurrency(t, ctxWide, 8) }()
	wg.Wait()
	if serialMax != 1 {
		t.Errorf("serial context reached concurrency %d, want 1", serialMax)
	}
	if wideMax != 4 {
		t.Errorf("4-worker context reached concurrency %d, want 4", wideMax)
	}
}

func TestMapChunkedMatchesMap(t *testing.T) {
	// Chunked scheduling changes which worker runs which index, never
	// the results: every index runs exactly once and lands at its slot.
	for _, chunk := range []int{1, 3, 7, 16, 100, 1000} {
		var ran atomic.Int64
		out := make([]int, 100)
		_, err := forEach(context.Background(), 100, chunk, collect(out, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i * i, nil
		}), false)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if ran.Load() != 100 {
			t.Fatalf("chunk=%d: %d tasks ran, want 100", chunk, ran.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("chunk=%d: out[%d] = %d, want %d", chunk, i, v, i*i)
			}
		}
	}
}

func TestMapChunkedFailFast(t *testing.T) {
	// An error cancels the sweep; workers abandon the rest of their
	// claimed chunk rather than draining it.
	sentinel := errors.New("boom")
	var ran atomic.Int64
	_, err := forEach(context.Background(), 1000, 50, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return sentinel
		}
		return nil
	}, false)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if n := ran.Load(); n == 1000 {
		t.Errorf("all %d tasks ran despite early error", n)
	}
}

func TestMapPartialChunkedCollectsErrors(t *testing.T) {
	// Partial-results chunked sweeps annotate failures per index and
	// still evaluate every other point.
	sentinel := errors.New("bad point")
	out := make([]int, 97)
	errs, err := forEach(context.Background(), 97, 8, collect(out, func(_ context.Context, i int) (int, error) {
		if i%10 == 4 {
			return 0, sentinel
		}
		return i + 1, nil
	}), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 10 {
		t.Fatalf("%d task errors, want 10", len(errs))
	}
	for _, te := range errs {
		if te.Index%10 != 4 || !errors.Is(te.Err, sentinel) {
			t.Errorf("unexpected task error %+v", te)
		}
	}
	for i, v := range out {
		if i%10 == 4 {
			continue
		}
		if v != i+1 {
			t.Errorf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestChunkSizing(t *testing.T) {
	// chunkSize targets ~4 chunks per worker, never returns less than
	// 1, and stays at 1 below 8 tasks per worker — so Map dispatches a
	// short task list exactly as ForEach does.
	ctx := context.Background()
	w := WorkersFor(ctx)
	if got, want := chunkSize(ctx, 0), 1; got != want {
		t.Errorf("chunkSize(0) = %d, want %d", got, want)
	}
	if got, want := chunkSize(ctx, 1), 1; got != want {
		t.Errorf("chunkSize(1) = %d, want %d", got, want)
	}
	if got, want := chunkSize(ctx, 8*w-1), 1; got != want {
		t.Errorf("chunkSize(%d) = %d, want %d", 8*w-1, got, want)
	}
	if got, want := chunkSize(ctx, 8*4*w), 8; got != want {
		t.Errorf("chunkSize(%d) = %d, want %d", 8*4*w, got, want)
	}
}
