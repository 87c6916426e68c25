package index

import (
	"repro/internal/event"
	"repro/internal/store"
)

// Put stores a published notification. The notification must carry its
// controller-assigned global ID. Put is idempotent on the global ID.
// Put is PutStaged followed immediately by the commit barrier.
func (ix *Index) Put(n *event.Notification) error {
	c, err := ix.PutStaged(n)
	if err != nil {
		return err
	}
	return c.Wait()
}

// Len returns the number of stored notifications, counting keys.
func (ix *Index) Len() (int, error) {
	n := 0
	err := ix.st.View(func(tx store.Tx) error {
		tx.AscendKeys("e/", "", func(string) bool {
			n++
			return true
		})
		return nil
	})
	return n, err
}
