package store

import (
	"encoding/json"
	"fmt"
)

// Component is one named unit of checkpointable pipeline state: a
// crawler cursor set, the dedup index, the monitor schedule, the core
// funnel, a mitigation service. A study registers every component in a
// Registry once, and the snapshot, restore, and delta-cut paths iterate
// that one table instead of special-casing each layer.
//
// Snapshot and Restore speak JSON payloads verbatim — the Snapshot type
// stores them untouched, so Decode→Encode round-trips byte-identically.
type Component interface {
	// Name is the component's key in Snapshot.Components
	// ("core", "dedup", "crawler/<site>", "service/notify", ...).
	Name() string
	// Snapshot returns the component's full state as JSON.
	Snapshot() (json.RawMessage, error)
	// Restore replaces the component's state from a payload previously
	// produced by Snapshot.
	Restore(raw json.RawMessage) error
	// DeltaJournal returns the component's dirty-tracking journal.
	DeltaJournal() Journal
}

// Journal is a component's incremental-checkpoint surface: dirty
// tracking between cuts. Replaying a chain is the study's business: it
// owns the typed fold from each component's patches back to full state.
type Journal interface {
	// SetJournal turns dirty tracking on or off. With journaling off,
	// Cut reports dirty for any state change since the last cut is
	// undetectable — callers only enable delta mode up front.
	SetJournal(on bool)
	// Cut drains the journal: it returns the patch since the previous
	// cut and whether anything changed. A clean component returns
	// (nil, false, nil) and travels as a reference in the delta.
	Cut() (patch json.RawMessage, dirty bool, err error)
}

// Registry is the ordered table of a study's components. Registration
// order is iteration order, which fixes the (already deterministic)
// layout of snapshots and delta cuts.
type Registry struct {
	names    []string
	byName   map[string]Component
	optional map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Component{}, optional: map[string]bool{}}
}

// Register adds a required component: restore fails if a snapshot lacks
// its payload. Duplicate names are rejected.
func (r *Registry) Register(c Component) error {
	return r.add(c, false)
}

// RegisterOptional adds a component whose payload may be absent from a
// snapshot (services added after old checkpoints were cut). Restore
// skips it when the snapshot has no payload under its name.
func (r *Registry) RegisterOptional(c Component) error {
	return r.add(c, true)
}

func (r *Registry) add(c Component, optional bool) error {
	name := c.Name()
	if name == "" {
		return fmt.Errorf("store: component with empty name")
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("store: component %q registered twice", name)
	}
	r.names = append(r.names, name)
	r.byName[name] = c
	r.optional[name] = optional
	return nil
}

// Len returns the number of registered components.
func (r *Registry) Len() int { return len(r.names) }

// Each invokes fn for every component in registration order, stopping
// at the first error.
func (r *Registry) Each(fn func(c Component, optional bool) error) error {
	for _, name := range r.names {
		if err := fn(r.byName[name], r.optional[name]); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the component registered under name.
func (r *Registry) Lookup(name string) (Component, bool) {
	c, ok := r.byName[name]
	return c, ok
}
