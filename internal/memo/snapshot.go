package memo

import (
	"fmt"
	"os"
	"sync"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
)

// Memo snapshots persist cache contents across process runs: the CLI tools
// rebuild the same symmetric closures on every invocation, and a disk
// snapshot (canonical key → closure, length-prefixed binary) turns the cold
// start into a file read. Caches opt in by registering a named section with
// an export/import pair; the value encoding lives with the cache owner
// (e.g. internal/graph encodes digraph slices), so this package stays free
// of domain types.
//
// A snapshot is a checkpoint-codec sectioned file with an empty key, so it
// shares the checkpoints' CRC32 records, strict loader and atomic save.

// snapshotMagic identifies the file format; the trailing version byte bumps
// on incompatible changes. Files of other versions (v1 without checksums,
// v2 with memo's own framing) load as foreign: warn and start cold. Loaders
// skip sections they have no importer for, so adding sections stays
// backward-compatible.
var snapshotMagic = []byte("ksetmemo\x03")

type snapshotSection struct {
	name    string
	export  func() ([]byte, error)
	restore func([]byte) error
}

var (
	sectionMu sync.Mutex
	sections  []snapshotSection
)

// RegisterSnapshot adds a named snapshot section. export serializes the
// owner's cache contents; restore restores them (typically via Cache.Put,
// so restoring is additive and thread-safe). Registration normally happens
// in the owner package's init.
func RegisterSnapshot(name string, export func() ([]byte, error), restore func([]byte) error) {
	sectionMu.Lock()
	defer sectionMu.Unlock()
	for _, s := range sections {
		if s.name == name {
			panic(fmt.Sprintf("memo: duplicate snapshot section %q", name))
		}
	}
	sections = append(sections, snapshotSection{name: name, export: export, restore: restore})
}

// SaveSnapshot writes every registered section to path, atomically and
// durably (checkpoint.WriteFileAtomic).
func SaveSnapshot(path string) error {
	sectionMu.Lock()
	regs := append([]snapshotSection(nil), sections...)
	sectionMu.Unlock()

	secs := make([]checkpoint.Section, len(regs))
	for i, s := range regs {
		payload, err := s.export()
		if err != nil {
			return fmt.Errorf("memo: exporting section %q: %w", s.name, err)
		}
		secs[i] = checkpoint.Section{Name: s.name, Payload: payload}
	}
	return checkpoint.WriteFileAtomic(path, checkpoint.EncodeSections(snapshotMagic, "", secs), nil)
}

// LoadSnapshot restores every section of the file that has a registered
// importer; sections without one are skipped, so snapshots survive the
// removal of a cache. Loading is additive — it Puts entries into live
// caches and never clears anything. Integrity failures (truncation, CRC
// mismatch, foreign or older-version bytes) return a *checkpoint.CorruptError
// matching checkpoint.ErrCorrupt, and checksums are verified BEFORE any
// section is imported, so a corrupt file never half-populates the caches.
func LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	faultinject.Corrupt(faultinject.PointSnapshotLoad, data)
	_, secs, err := checkpoint.DecodeSections(snapshotMagic, path, data)
	if err != nil {
		return err
	}
	sectionMu.Lock()
	importers := make(map[string]func([]byte) error, len(sections))
	for _, s := range sections {
		importers[s.name] = s.restore
	}
	sectionMu.Unlock()
	for _, s := range secs {
		imp, ok := importers[s.Name]
		if !ok {
			continue
		}
		if err := imp(s.Payload); err != nil {
			return fmt.Errorf("memo: importing section %q: %w", s.Name, err)
		}
	}
	return nil
}

// SnapshotEntries returns the cache's keys and values aligned, least
// recently used first — the order Restore should replay them in so that
// recency survives a round-trip.
func (c *Cache[V]) SnapshotEntries() ([]string, []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	vals := make([]V, 0, len(c.entries))
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
		vals = append(vals, e.value)
	}
	return keys, vals
}

// Restore Puts the entries back in order (pair i of keys and vals).
// Replaying a SnapshotEntries dump LRU-first reproduces the recency order.
func (c *Cache[V]) Restore(keys []string, vals []V) {
	for i := range keys {
		c.Put(keys[i], vals[i])
	}
}

// Clear drops every entry (counters are kept; they are lifetime totals).
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry[V], c.capacity)
	c.head, c.tail = nil, nil
}
