package replication

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// epochFile is the name of the durable epoch cell inside a node's data
// directory.
const epochFile = "election.epoch"

// epochCell is a node's one fencing epoch: raise-only, and — when it
// has a path — durable before Raise returns. Every way the epoch can
// move goes through Raise: a vote granted, an epoch claimed for the
// node's own campaign, a higher epoch adopted from a primary's frame,
// and a promotion. The value must survive a crash: a voter that forgot
// a grant could vote twice in the same epoch and hand two candidates a
// majority, and a promoted node that forgot its epoch would come back
// shipping under one its followers already fence. The file is a single
// 8-byte big-endian value, replaced atomically (write to a temp file,
// fsync, rename, fsync the directory).
type epochCell struct {
	path  string // "" keeps the cell in memory (a standalone Follower's seed)
	gauge *telemetry.Gauge

	mu sync.Mutex // serialises raises; readers go through v
	v  atomic.Uint64
}

// openEpoch opens the cell at path (creating nothing until the first
// raise) holding max(floor, persisted). An empty path keeps the cell in
// memory at floor.
func openEpoch(path string, floor uint64, m *telemetry.Registry) (*epochCell, error) {
	c := &epochCell{path: path}
	c.v.Store(floor)
	if path != "" {
		raw, err := os.ReadFile(path)
		switch {
		case os.IsNotExist(err):
			// First boot: nothing raised yet.
		case err != nil:
			return nil, fmt.Errorf("replication: read epoch cell: %w", err)
		case len(raw) != 8:
			return nil, fmt.Errorf("replication: epoch cell %s is %d bytes, want 8", path, len(raw))
		default:
			if e := binary.BigEndian.Uint64(raw); e > floor {
				c.v.Store(e)
			}
		}
	}
	if m != nil {
		c.gauge = m.Gauge("css_repl_epoch", "Fencing epoch this node ships or applies under.")
		c.gauge.Set(float64(c.v.Load()))
	}
	return c, nil
}

// Load returns the node's current epoch.
func (c *epochCell) Load() uint64 { return c.v.Load() }

// Raise moves the cell to epoch if that is strictly above its value,
// returning whether it moved. The fsync completes before Raise returns
// true — only then may the caller grant the vote, count its own claim,
// or accept the frame.
func (c *epochCell) Raise(epoch uint64) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch <= c.v.Load() {
		return false, nil
	}
	if c.path != "" {
		if err := c.persist(epoch); err != nil {
			return false, fmt.Errorf("replication: raise epoch to %d: %w", epoch, err)
		}
	}
	c.v.Store(epoch)
	if c.gauge != nil {
		c.gauge.Set(float64(epoch))
	}
	return true, nil
}

func (c *epochCell) persist(epoch uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], epoch)
	tmp := c.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(c.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}
