package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
)

func mkNote(id string, at time.Time) *event.Notification {
	return &event.Notification{ID: event.GlobalID(id), OccurredAt: at}
}

// TestMergeStableUnderShuffledReplies: however the per-shard reply map
// is populated or ordered, the merged list must come out identical —
// ascending (OccurredAt, ID), matching a single-shard index scan.
func TestMergeStableUnderShuffledReplies(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	all := make([]*event.Notification, 0, 60)
	for i := 0; i < 60; i++ {
		// Duplicate timestamps every 3 events force the ID tiebreak.
		all = append(all, mkNote(fmt.Sprintf("evt-%04d", i), base.Add(time.Duration(i/3)*time.Second)))
	}

	var want []string
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		// Random assignment of events to 4 shards, random reply order.
		perShard := map[ShardID][]*event.Notification{}
		shuffled := make([]*event.Notification, len(all))
		copy(shuffled, all)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, n := range shuffled {
			id := ShardID(rng.Intn(4))
			perShard[id] = append(perShard[id], n)
		}
		merged := MergeNotifications(perShard, 0)
		got := make([]string, len(merged))
		for i, n := range merged {
			got[i] = string(n.ID)
		}
		if trial == 0 {
			want = got
			for i := 1; i < len(merged); i++ {
				a, b := merged[i-1], merged[i]
				if b.OccurredAt.Before(a.OccurredAt) ||
					(b.OccurredAt.Equal(a.OccurredAt) && b.ID < a.ID) {
					t.Fatalf("merge out of order at %d: %s then %s", i, a.ID, b.ID)
				}
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverged at %d: %s vs %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeLimits: limit truncates after the merge, and a gid present
// on two shards (an exactly-once violation) shows twice rather than
// vanishing.
func TestMergeLimits(t *testing.T) {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	perShard := map[ShardID][]*event.Notification{
		0: {mkNote("evt-a", at), mkNote("evt-c", at.Add(2*time.Second))},
		1: {mkNote("evt-a", at), mkNote("evt-b", at.Add(time.Second))},
	}
	merged := MergeNotifications(perShard, 0)
	if len(merged) != 4 {
		t.Fatalf("got %d results, want 4 (a duplicate was hidden): %v", len(merged), merged)
	}
	if merged[0].ID != "evt-a" || merged[1].ID != "evt-a" || merged[2].ID != "evt-b" || merged[3].ID != "evt-c" {
		t.Fatalf("wrong order: %s %s %s %s", merged[0].ID, merged[1].ID, merged[2].ID, merged[3].ID)
	}
	if got := MergeNotifications(perShard, 3); len(got) != 3 || got[2].ID != "evt-b" {
		t.Fatalf("limit=3 gave %d results", len(got))
	}
}

// TestGatherPartialFailure: one failing shard must not void the
// others; the error must be a typed *PartialError matching
// ErrPartialResult and naming the failed shard with its cause.
func TestGatherPartialFailure(t *testing.T) {
	shards := testShards(3)
	boom := errors.New("shard 1 is down")
	res, err := Gather(context.Background(), shards,
		func(ctx context.Context, s ShardInfo) (string, error) {
			if s.ID == 1 {
				return "", boom
			}
			return "ok-" + s.ID.String(), nil
		})
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("err = %v, want ErrPartialResult", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatal("error is not a *PartialError")
	}
	if len(pe.Failed) != 1 || !errors.Is(pe.Failed[1], boom) {
		t.Fatalf("per-shard detail wrong: %+v", pe.Failed)
	}
	if len(res) != 2 || res[0] != "ok-shard-0" || res[2] != "ok-shard-2" {
		t.Fatalf("surviving results wrong: %+v", res)
	}
}

// TestGatherLegsRunUnderParentDeadline: every per-shard leg runs under
// the caller's deadline, so a hung shard is cut off when it expires and
// reports DeadlineExceeded while the others answer.
func TestGatherLegsRunUnderParentDeadline(t *testing.T) {
	start := time.Now()
	parent, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	parentDL, _ := parent.Deadline()
	res, err := Gather(parent, testShards(2),
		func(ctx context.Context, s ShardInfo) (struct{}, error) {
			if dl, ok := ctx.Deadline(); !ok || !dl.Equal(parentDL) {
				t.Errorf("shard %s deadline = %v (%v), want the parent's %v", s.ID, dl, ok, parentDL)
			}
			if s.ID == 1 {
				<-ctx.Done() // simulate a hung shard
				return struct{}{}, ctx.Err()
			}
			return struct{}{}, nil
		})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("parent deadline did not bite: gather took %v", elapsed)
	}
	if _, ok := res[0]; !ok || len(res) != 1 {
		t.Fatalf("surviving results = %+v, want shard-0 only", res)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(pe.Failed[1], context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded for the hung shard, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("PartialError.Unwrap does not surface the shard cause")
	}
}
