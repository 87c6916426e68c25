package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
}

func TestRetrierSucceedsAfterTransientFailures(t *testing.T) {
	r := NewRetrier(fastPolicy())
	attempts := 0
	err := r.Do(context.Background(), "op", func(context.Context) error {
		attempts++
		if attempts < 3 {
			return MarkRetryable(errors.New("transient"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestRetrierDoesNotRetryPermanentErrors(t *testing.T) {
	r := NewRetrier(fastPolicy())
	permanent := errors.New("permanent")
	attempts := 0
	err := r.Do(context.Background(), "op", func(context.Context) error {
		attempts++
		return permanent
	})
	if !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want the permanent error", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry of permanent errors)", attempts)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	r := NewRetrier(fastPolicy())
	transient := errors.New("still down")
	attempts := 0
	err := r.Do(context.Background(), "op", func(context.Context) error {
		attempts++
		return MarkRetryable(transient)
	})
	if !errors.Is(err, transient) {
		t.Fatalf("err = %v, want wrapped transient error", err)
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want MaxAttempts=4", attempts)
	}
}

func TestRetrierHonorsRetryAfterHint(t *testing.T) {
	r := NewRetrier(fastPolicy())
	const hint = 60 * time.Millisecond
	attempts := 0
	start := time.Now()
	err := r.Do(context.Background(), "op", func(context.Context) error {
		attempts++
		if attempts == 1 {
			return MarkRetryableAfter(errors.New("throttled"), hint)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	// The backoff ceiling is 4ms, so reaching the hint proves it was used.
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("retried after %v, want at least the Retry-After hint %v", elapsed, hint)
	}
}

func TestRetrierStopsOnContextCancel(t *testing.T) {
	p := fastPolicy()
	p.BaseDelay = time.Hour // the retry sleep must be interruptible
	p.MaxDelay = time.Hour
	r := NewRetrier(p)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.Do(ctx, "op", func(context.Context) error {
			return MarkRetryable(errors.New("down"))
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after cancel")
	}
}

func TestRetrierBackoffIsCappedAndDeterministic(t *testing.T) {
	a := NewRetrier(RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42})
	b := NewRetrier(RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42})
	for attempt := 1; attempt <= 8; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v vs %v", attempt, da, db)
		}
		if da <= 0 || da > 80*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v outside (0, cap]", attempt, da)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	if Retryable(nil) {
		t.Fatal("nil must not be retryable")
	}
	if Retryable(errors.New("plain")) {
		t.Fatal("unmarked errors must not be retryable")
	}
	if !Retryable(MarkRetryable(errors.New("x"))) {
		t.Fatal("marked errors must be retryable")
	}
	open := &OpenError{Name: "ep", After: time.Second}
	if !Retryable(open) {
		t.Fatal("breaker rejections must be retryable (the cooldown elapses)")
	}
	if after, ok := RetryAfterOf(open); !ok || after != time.Second {
		t.Fatalf("RetryAfterOf(open) = %v, %v; want 1s, true", after, ok)
	}
}
