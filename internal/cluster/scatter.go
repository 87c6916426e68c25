// Scatter-gather: fan a person or notification query out to every
// shard concurrently under the caller's deadline, and merge the replies
// into one stably ordered result. A shard that fails does not void the
// others — the caller gets the merged partial result plus a typed
// PartialError naming exactly which shards failed and why.
package cluster

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"repro/internal/event"
)

// ErrPartialResult is the sentinel identity of PartialError: at least
// one shard of a scatter-gather failed, so the merged result may be
// incomplete. errors.Is(err, ErrPartialResult) matches it.
var ErrPartialResult = errors.New("cluster: partial scatter-gather result")

// PartialError reports the shards that failed during a scatter-gather,
// with the per-shard cause. The merged result built from the shards
// that did answer accompanies it — callers decide whether a partial
// view is acceptable for their use.
type PartialError struct {
	// Failed maps each failed shard to its error.
	Failed map[ShardID]error
}

// Error lists the failed shards in id order.
func (e *PartialError) Error() string {
	ids := make([]ShardID, 0, len(e.Failed))
	for id := range e.Failed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteString("cluster: partial scatter-gather result (")
	for i, id := range ids {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(id.String())
		b.WriteString(": ")
		b.WriteString(e.Failed[id].Error())
	}
	b.WriteString(")")
	return b.String()
}

// Is makes errors.Is(err, ErrPartialResult) match.
func (e *PartialError) Is(target error) bool { return target == ErrPartialResult }

// Unwrap exposes the per-shard causes to errors.Is/As chains, so e.g.
// errors.Is(err, context.DeadlineExceeded) still answers whether any
// shard timed out.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, 0, len(e.Failed))
	for _, err := range e.Failed {
		errs = append(errs, err)
	}
	return errs
}

// Gather calls fn once per shard concurrently, each under ctx, and
// collects the results: the caller's deadline bounds every leg.
//
// Gather returns the results of every shard that succeeded. If any
// shard failed it also returns a *PartialError; if all shards failed,
// results is empty and only the error speaks.
func Gather[T any](ctx context.Context, shards []ShardInfo,
	fn func(ctx context.Context, shard ShardInfo) (T, error)) (map[ShardID]T, error) {

	type reply struct {
		id  ShardID
		res T
		err error
	}
	replies := make([]reply, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s ShardInfo) {
			defer wg.Done()
			res, err := fn(ctx, s)
			replies[i] = reply{id: s.ID, res: res, err: err}
		}(i, s)
	}
	wg.Wait()

	results := make(map[ShardID]T, len(shards))
	var failed map[ShardID]error
	for _, r := range replies {
		if r.err != nil {
			if failed == nil {
				failed = make(map[ShardID]error)
			}
			failed[r.id] = r.err
			continue
		}
		results[r.id] = r.res
	}
	if failed != nil {
		return results, &PartialError{Failed: failed}
	}
	return results, nil
}

// MergeNotifications merges per-shard notification lists into one list
// with stable ordering — ascending (OccurredAt, ID), matching the
// single-shard index scan order — independent of the order shards
// replied in. Each event lives on exactly one shard, so a duplicate ID
// is an exactly-once violation; it is kept, not hidden. limit > 0
// truncates the merged result.
func MergeNotifications(perShard map[ShardID][]*event.Notification, limit int) []*event.Notification {
	// Merge in shard-id order so equal-key ties resolve identically on
	// every call, whatever order the map iterates.
	ids := make([]ShardID, 0, len(perShard))
	total := 0
	for id, list := range perShard {
		ids = append(ids, id)
		total += len(list)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	merged := make([]*event.Notification, 0, total)
	for _, id := range ids {
		merged = append(merged, perShard[id]...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if !merged[i].OccurredAt.Equal(merged[j].OccurredAt) {
			return merged[i].OccurredAt.Before(merged[j].OccurredAt)
		}
		return merged[i].ID < merged[j].ID
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged
}
