package gateway

import "repro/internal/store"

// Len returns the number of persisted detail messages, counting keys.
func (g *Gateway) Len() (int, error) {
	n := 0
	err := g.st.View(func(tx store.Tx) error {
		tx.AscendKeys("dt/", "", func(string) bool {
			n++
			return true
		})
		return nil
	})
	return n, err
}
