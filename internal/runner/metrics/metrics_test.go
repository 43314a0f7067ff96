package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserveAndReport(t *testing.T) {
	Reset()
	ObserveIn(nil, StageSTA, 5*time.Millisecond)
	ObserveIn(nil, StageSTA, 70*time.Millisecond)
	ObserveIn(nil, StageIPC, 2*time.Second)
	snaps := Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d stages, want 2", len(snaps))
	}
	// Sorted by name: ipc before sta.
	if snaps[0].Stage != StageIPC || snaps[1].Stage != StageSTA {
		t.Fatalf("order: %s, %s", snaps[0].Stage, snaps[1].Stage)
	}
	sta := snaps[1]
	if sta.Count != 2 || sta.Total != 75*time.Millisecond || sta.Max != 70*time.Millisecond {
		t.Errorf("sta totals wrong: %+v", sta)
	}
	rep := Report()
	for _, want := range []string{"sta", "ipc", "count", "histogram"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{500 * time.Nanosecond, 0},
		{5 * time.Microsecond, 0},
		{50 * time.Microsecond, 1},
		{5 * time.Millisecond, 3},
		{5 * time.Second, 6},
		{3 * time.Hour, bucketCount - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestProgressHook(t *testing.T) {
	Reset()
	var mu sync.Mutex
	var events []int64
	OnProgress(func(stage string, count int64, d time.Duration) {
		if stage != StagePipeline {
			return
		}
		mu.Lock()
		events = append(events, count)
		mu.Unlock()
	})
	defer OnProgress(nil)
	ObserveIn(nil, StagePipeline, time.Millisecond)
	ObserveIn(nil, StagePipeline, time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[1] != 2 {
		t.Errorf("progress events = %v, want [1 2]", events)
	}
}

// TestProgressHookSurvivesReset pins the Reset/OnProgress contract: the
// hook lives outside the counter registry, so a Reset (e.g. between
// daemon jobs) clears the counters but keeps the subscriber — the SSE
// progress broker must not go deaf mid-stream. Counts restart from 1.
func TestProgressHookSurvivesReset(t *testing.T) {
	Reset()
	var mu sync.Mutex
	var events []int64
	OnProgress(func(stage string, count int64, d time.Duration) {
		if stage != StagePipeline {
			return
		}
		mu.Lock()
		events = append(events, count)
		mu.Unlock()
	})
	defer OnProgress(nil)
	ObserveIn(nil, StagePipeline, time.Millisecond)
	Reset()
	// Concurrent observers after the reset keep the -race detector
	// honest about the hook pointer and the recreated series.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ObserveIn(nil, StagePipeline, time.Millisecond)
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 5 {
		t.Fatalf("got %d progress events across Reset, want 5: %v", len(events), events)
	}
	if events[0] != 1 {
		t.Errorf("first pre-reset count = %d, want 1", events[0])
	}
	post := events[1:]
	seen := map[int64]bool{}
	for _, c := range post {
		seen[c] = true
	}
	for want := int64(1); want <= 4; want++ {
		if !seen[want] {
			t.Errorf("post-reset counts = %v, want a permutation of [1 2 3 4] (counts restart after Reset)", post)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	Reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ObserveIn(nil, StageCharacterize, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snaps := Snapshots()
	if len(snaps) != 1 || snaps[0].Count != 800 {
		t.Fatalf("snapshots = %+v, want one stage with count 800", snaps)
	}
}

func TestEmptyReport(t *testing.T) {
	Reset()
	if rep := Report(); !strings.Contains(rep, "nothing recorded") {
		t.Errorf("empty report = %q", rep)
	}
}
