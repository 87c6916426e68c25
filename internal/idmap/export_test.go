package idmap

import "repro/internal/store"

// Len returns the number of assigned global identifiers, counting keys.
func (m *Map) Len() (int, error) {
	n := 0
	err := m.st.View(func(tx store.Tx) error {
		tx.AscendKeys("g/", "", func(string) bool {
			n++
			return true
		})
		return nil
	})
	return n, err
}
