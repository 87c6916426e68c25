package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleflightCoalesces(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 8
	results := make([]int, n)
	shareds := make([]bool, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil {
			t.Errorf("leader err: %v", err)
		}
		results[0], shareds[0] = v, shared
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Errorf("follower err: %v", err)
			}
			results[i], shareds[i] = v, shared
		}(i)
	}
	// Let the followers reach the wait before releasing the leader.
	for deadline := time.Now().Add(2 * time.Second); g.InFlight() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	sharedCount := 0
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("shared count = %d, want %d", sharedCount, n-1)
	}
}

func TestSingleflightDistinctKeys(t *testing.T) {
	var g Group[int, int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), i, func() (int, error) {
				calls.Add(1)
				return i * 10, nil
			})
			if err != nil || v != i*10 {
				t.Errorf("Do(%d) = %d, %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("fn ran %d times for 4 distinct keys, want 4", got)
	}
}

func TestSingleflightError(t *testing.T) {
	var g Group[string, int]
	sentinel := errors.New("boom")
	_, _, err := g.Do(context.Background(), "k", func() (int, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	// The failed flight must not be cached: a retry runs fn again.
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || shared {
		t.Fatalf("retry = %d, shared=%v, err=%v; want 7, false, nil", v, shared, err)
	}
}

func TestSingleflightPanicDoesNotHangWaiters(t *testing.T) {
	var g Group[string, int]
	started := make(chan struct{})
	release := make(chan struct{})

	waiterErr := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("leader died")
		})
	}()
	<-started
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	// Give the waiter time to attach to the in-flight call, then kill
	// the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case err := <-waiterErr:
		// The waiter either joined the doomed flight (abandoned) or
		// raced past the delete and ran its own fn (nil) — both are
		// fine; hanging is not.
		if err != nil && !errors.Is(err, ErrFlightAbandoned) {
			t.Fatalf("waiter err = %v, want nil or ErrFlightAbandoned", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung after leader panic")
	}
}

// A follower re-runs the call only when the leader itself gave up; an
// error that merely looks like one (a downstream timeout under a live
// leader context) is a result like any other and is shared.
func TestSingleflightFollowerOutlivesLeaderCancellation(t *testing.T) {
	for _, leaderGivesUp := range []bool{true, false} {
		var g Group[string, int]
		leaderCtx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		release := make(chan struct{})
		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := g.Do(leaderCtx, "k", func() (int, error) {
				close(started)
				<-release
				return 0, context.Canceled
			})
			leaderDone <- err
		}()
		<-started
		followerDone := make(chan error, 1)
		var reran atomic.Bool
		go func() {
			_, _, err := g.Do(context.Background(), "k", func() (int, error) {
				reran.Store(true)
				return 7, nil
			})
			followerDone <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the follower reach the wait
		if leaderGivesUp {
			cancel()
		}
		close(release)
		if err := <-leaderDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader err = %v", err)
		}
		err := <-followerDone
		if leaderGivesUp && (err != nil || !reran.Load()) {
			t.Errorf("leader gave up: follower err = %v, reran = %v; want its own run", err, reran.Load())
		}
		if !leaderGivesUp && (!errors.Is(err, context.Canceled) || reran.Load()) {
			t.Errorf("leader live: follower err = %v, reran = %v; want the shared error", err, reran.Load())
		}
		cancel()
	}
}
