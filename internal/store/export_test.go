package store

// ArenaBytes reports what the memtable has taken from its chunks, dead
// bytes and abandoned chunk tails included.
func (s *Store) ArenaBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.total
}
