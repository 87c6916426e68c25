package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/store"
)

// Catalog and policy persistence: with a data directory configured, the
// controller writes every membership registration, class declaration and
// privacy policy through to its stores and reloads them at startup, so a
// restarted controller resumes with the full platform state (the events
// index, id map, audit trail and consent registry are persistent
// already). Gateway attachments are process-level wiring and are
// re-established by the operator at boot.
//
// Key layout in the catalog store:
//
//	prod/<id>     → producer display name
//	cons/<actor>  → consumer display name
//	class/<class> → <producer> NUL <schema XML>
//
// and in the policy store:
//
//	p/<policy id> → compact policy XML
type persistence struct {
	catalog  *store.Store // nil: in-memory controller
	policies *store.Store
}

func (c *Controller) persistProducer(id event.ProducerID, name string) error {
	if c.persist.catalog == nil {
		return nil
	}
	return c.persist.catalog.Put("prod/"+string(id), []byte(name))
}

func (c *Controller) persistConsumer(actor event.Actor, name string) error {
	if c.persist.catalog == nil {
		return nil
	}
	return c.persist.catalog.Put("cons/"+string(actor), []byte(name))
}

func (c *Controller) persistClass(producer event.ProducerID, s *schema.Schema) error {
	if c.persist.catalog == nil {
		return nil
	}
	data, err := schema.Encode(s)
	if err != nil {
		return err
	}
	val := append([]byte(string(producer)+"\x00"), data...)
	return c.persist.catalog.Put("class/"+string(s.Class()), val)
}

func (c *Controller) persistPolicy(p *policy.Policy) error {
	if c.persist.policies == nil {
		return nil
	}
	data, err := policy.Encode(p)
	if err != nil {
		return err
	}
	return c.persist.policies.Put("p/"+string(p.ID), data)
}

func (c *Controller) unpersistPolicy(id policy.ID) error {
	if c.persist.policies == nil {
		return nil
	}
	return c.persist.policies.Delete("p/" + string(id))
}

// reload syncs the registry and the policy set from the catalog and
// policy stores. It is the one loader: New runs it against an empty
// registry, and a replica runs it against live state after an applied
// segment or at promotion — so entries that are already loaded are
// tolerated, and policies deleted on the primary are revoked here too.
func (c *Controller) reload() error {
	if c.persist.catalog == nil {
		return nil
	}
	err := ascend(c.persist.catalog, "prod/", func(id string, v []byte) error {
		if err := c.reg.RegisterProducer(event.ProducerID(id), string(v)); err != nil && !registryDuplicate(err) {
			return fmt.Errorf("core: reload producer %s: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = ascend(c.persist.catalog, "cons/", func(actor string, v []byte) error {
		if err := c.reg.RegisterConsumer(event.Actor(actor), string(v)); err != nil && !registryDuplicate(err) {
			return fmt.Errorf("core: reload consumer %s: %w", actor, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = ascend(c.persist.catalog, "class/", func(class string, v []byte) error {
		sep := bytes.IndexByte(v, 0)
		if sep < 0 {
			return errors.New("core: corrupt class record " + class)
		}
		producer := event.ProducerID(v[:sep])
		s, err := schema.Decode(v[sep+1:])
		if err != nil {
			return fmt.Errorf("core: reload class %s: %w", class, err)
		}
		if err := c.reg.DeclareClass(producer, s); err != nil {
			// Identical re-declaration by the same owner is the steady
			// state of a refresh; anything else is real.
			if existing, gerr := c.reg.Class(s.Class()); gerr != nil ||
				existing.Producer != producer || existing.Schema.Version() != s.Version() {
				return fmt.Errorf("core: reload class %s: %w", class, err)
			}
		}
		return nil
	})
	if err != nil || c.persist.policies == nil {
		return err
	}
	present := make(map[policy.ID]bool)
	err = ascend(c.persist.policies, "p/", func(id string, v []byte) error {
		p, err := policy.Decode(v)
		if err != nil {
			return fmt.Errorf("core: reload policy %s: %w", id, err)
		}
		present[p.ID] = true
		if _, err := c.enf.Repository().Get(p.ID); err == nil {
			return nil // already installed
		}
		if _, err := c.enf.AddPolicy(p); err != nil {
			return fmt.Errorf("core: reload policy %s: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Policies revoked on the primary are gone from the replicated store;
	// drop them from the live PDP too.
	for _, p := range c.enf.Repository().All() {
		if !present[p.ID] {
			if err := c.enf.RemovePolicy(p.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// ascend walks the keys under prefix in order, handing fn each key with
// the prefix cut off, and stops at fn's first error.
func ascend(st *store.Store, prefix string, fn func(name string, v []byte) error) error {
	var ferr error
	err := st.AscendPrefix(prefix, func(k string, v []byte) bool {
		ferr = fn(strings.TrimPrefix(k, prefix), v)
		return ferr == nil
	})
	if err != nil {
		return err
	}
	return ferr
}

// registryDuplicate reports the benign idempotent-rejoin case.
func registryDuplicate(err error) bool {
	return errors.Is(err, registry.ErrDuplicate)
}
