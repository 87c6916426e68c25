// Reshard handoff support: exporting the full key set of the events
// whose person pseudonym moves to another shard, and sweeping those
// keys away after the shard map flips. The scatter-gather and publish
// routing layers also need the pseudonym itself, so it is exported
// here rather than widening the keyring's surface elsewhere.
package index

import (
	"encoding/json"
	"fmt"

	"repro/internal/event"
	"repro/internal/store"
)

// Pseudonym returns the keyed pseudonym routing and partitioning use
// for a person identifier, the same one the person index is keyed by.
func (ix *Index) Pseudonym(person string) string {
	return ix.keys.Pseudonym(person)
}

// movedEvent is one event whose owner changes under the next shard
// map, with everything needed to rebuild its index keys.
type movedEvent struct {
	id        event.GlobalID
	pseudonym string
	ts        string
	class     event.ClassID
	producer  event.ProducerID
	value     []byte // raw persisted record (person id still sealed)
}

// collectMoved scans the person index and returns every event whose
// pseudonym satisfies moved. The scan reads keys, and the primary record
// of a moved event only. Events indexed under several persons never
// exist here (one notification names one person), so the scan is
// exhaustive and duplicate-free.
func (ix *Index) collectMoved(moved func(pseudonym string) bool) ([]movedEvent, error) {
	var out []movedEvent
	var innerErr error
	err := ix.st.View(func(tx store.Tx) error {
		tx.AscendKeys("p/", "", func(k string) bool {
			pseud, ts, id, ok := splitPersonKey(k)
			if !ok {
				innerErr = fmt.Errorf("index: malformed person index key %q", k)
				return false
			}
			if !moved(pseud) {
				return true
			}
			raw, ok := tx.Get(eventKey(id))
			if !ok {
				innerErr = fmt.Errorf("%w: dangling index entry %s", ErrNotFound, id)
				return false
			}
			var r record
			if err := json.Unmarshal(raw, &r); err != nil {
				innerErr = fmt.Errorf("index: corrupt record %s: %w", id, err)
				return false
			}
			out = append(out, movedEvent{
				id:        id,
				pseudonym: pseud,
				ts:        ts,
				class:     r.Class,
				producer:  r.Producer,
				value:     raw,
			})
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, innerErr
}

// ExportMoved streams every event whose pseudonym satisfies moved as
// one store batch each — the primary record plus its person and class
// keys, exactly as PutStaged writes them — and returns the count and
// the moved global ids (so the caller can ship the matching id-map
// entries alongside). The records travel with the person id still
// sealed: the handoff never exposes plaintext identifiers, and donor
// and recipient share the cluster master key.
func (ix *Index) ExportMoved(moved func(pseudonym string) bool,
	ship func(gid event.GlobalID, pseudonym string, b *store.Batch) error) (int, []event.GlobalID, error) {

	events, err := ix.collectMoved(moved)
	if err != nil {
		return 0, nil, err
	}
	gids := make([]event.GlobalID, 0, len(events))
	for _, ev := range events {
		var b store.Batch
		b.Put(eventKey(ev.id), ev.value)
		b.Put(personIdxKey(ev.pseudonym, ev.ts, ev.id), nil)
		b.Put(classIdxKey(ev.class, ev.ts, ev.id), nil)
		if err := ship(ev.id, ev.pseudonym, &b); err != nil {
			return len(gids), gids, err
		}
		gids = append(gids, ev.id)
	}
	return len(gids), gids, nil
}

// ApplyHandoff applies one handoff batch shipped by a donor's
// ExportMoved. Re-applying the same batch is harmless (pure puts of
// identical values).
func (ix *Index) ApplyHandoff(b *store.Batch) error {
	return ix.st.Apply(b)
}

// SweepMoved deletes every event whose pseudonym satisfies moved —
// the donor's post-flip cleanup after a handoff. It returns the global
// ids removed so the caller can sweep the matching id-map entries. The
// producer key an earlier build wrote goes too, when the event has one.
func (ix *Index) SweepMoved(moved func(pseudonym string) bool) ([]event.GlobalID, error) {
	events, err := ix.collectMoved(moved)
	if err != nil {
		return nil, err
	}
	var b store.Batch
	gids := make([]event.GlobalID, 0, len(events))
	for _, ev := range events {
		b.Delete(eventKey(ev.id))
		b.Delete(personIdxKey(ev.pseudonym, ev.ts, ev.id))
		b.Delete(classIdxKey(ev.class, ev.ts, ev.id))
		sk := producerIdxKey(ev.producer, ev.id)
		if has, _ := ix.st.Has(sk); has { // a closed store fails the Apply below
			b.Delete(sk)
		}
		gids = append(gids, ev.id)
	}
	if b.Len() == 0 {
		return nil, nil
	}
	if err := ix.st.Apply(&b); err != nil {
		return nil, err
	}
	return gids, nil
}

// splitPersonKey splits "p/<pseudonym>/<ts>/<id>" into its pseudonym,
// timestamp and id components. The timestamp is the fixed-width timeKey
// form and the id follows it, so the last two separators are
// unambiguous even though a pseudonym could in principle contain '/'
// (base64url pseudonyms and plaintext baseline ids do not).
func splitPersonKey(k string) (pseudonym, ts string, id event.GlobalID, ok bool) {
	const tsLen = 20
	if len(k) < 2+tsLen+2 || k[:2] != "p/" {
		return "", "", "", false
	}
	rest := k[2:]
	// Find the id separator scanning from the end, then the ts before it.
	idSep := -1
	for i := len(rest) - 1; i >= 0; i-- {
		if rest[i] == '/' {
			idSep = i
			break
		}
	}
	if idSep < tsLen+1 {
		return "", "", "", false
	}
	tsStart := idSep - tsLen
	if rest[tsStart-1] != '/' {
		return "", "", "", false
	}
	return rest[:tsStart-1], rest[tsStart:idSep], event.GlobalID(rest[idSep+1:]), true
}
