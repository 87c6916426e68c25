package replication

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"

	"repro/internal/frame"
)

// Campaign dials a follower's replication listener and submits an
// election claim: it reads the voter's hello (epoch and cursors), sends
// a campaign frame carrying the candidate's epoch and per-store
// cursors, and reads back the grant. The connection is closed before
// returning. ctx bounds the whole exchange — it is the candidate's
// lease window, so a grant that cannot arrive before the deadline is
// an error here and never counts as a vote.
func Campaign(ctx context.Context, dial func(addr string) (net.Conn, error), addr string, epoch uint64, cursors map[string]int64) (granted bool, voterEpoch uint64, err error) {
	if dial == nil {
		dial = dialTCP
	}
	conn, err := dial(addr)
	if err != nil {
		return false, 0, fmt.Errorf("replication: campaign dial %s: %w", addr, err)
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	br := bufio.NewReader(conn)
	msg, err := readMsg(br)
	if err != nil {
		return false, 0, fmt.Errorf("replication: campaign %s: hello: %w", addr, err)
	}
	voterEpoch, _, err = decodeCursors(msg, frame.Hello)
	if err != nil {
		return false, 0, fmt.Errorf("replication: campaign %s: hello: %w", addr, err)
	}

	offsets := make([]storeOffset, 0, len(cursors))
	for name, off := range cursors {
		offsets = append(offsets, storeOffset{name: name, offset: off})
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i].name < offsets[j].name })
	if err := writeMsg(conn, encodeCursors(frame.Campaign, epoch, offsets)); err != nil {
		return false, 0, fmt.Errorf("replication: campaign %s: %w", addr, err)
	}
	msg, err = readMsg(br)
	if err != nil {
		return false, 0, fmt.Errorf("replication: campaign %s: grant: %w", addr, err)
	}
	granted, voterEpoch, err = decodeGrant(msg)
	if err != nil {
		return false, 0, fmt.Errorf("replication: campaign %s: grant: %w", addr, err)
	}
	return granted, voterEpoch, nil
}
