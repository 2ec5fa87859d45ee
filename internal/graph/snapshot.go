package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/memo"
)

// The symmetric-closure cache is the snapshot layer's marquee customer:
// SymClosure pays an n! permutation sweep per cold key, and the CLI tools
// recompute the same handful of closures on every invocation. The section
// serializes the whole cache as canonical key → digraph slice in a
// length-prefixed binary layout (uvarint framing; one uvarint per adjacency
// row — rows are uint64 bitmasks).

func init() {
	memo.RegisterSnapshot("graph.symclosure", exportSymClosures, restoreSymClosures)
}

func exportSymClosures() ([]byte, error) {
	keys, vals := symCache.SnapshotEntries()
	var buf bytes.Buffer
	checkpoint.WriteUvarint(&buf, uint64(len(keys)))
	for i, key := range keys {
		checkpoint.WriteUvarint(&buf, uint64(len(key)))
		buf.WriteString(key)
		checkpoint.WriteUvarint(&buf, uint64(len(vals[i])))
		for _, g := range vals[i] {
			encodeDigraph(&buf, g)
		}
	}
	return buf.Bytes(), nil
}

func restoreSymClosures(payload []byte) error {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("graph: corrupt closure snapshot: %w", err)
	}
	for i := uint64(0); i < count; i++ {
		keyBytes, err := checkpoint.ReadLengthPrefixed(r)
		if err != nil {
			return fmt.Errorf("graph: corrupt closure snapshot: %w", err)
		}
		key := string(keyBytes)
		size, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("graph: corrupt closure snapshot: %w", err)
		}
		// Every digraph costs at least two bytes (n plus one row), so a
		// count beyond half the remaining payload is corruption — reject it
		// before the allocation can panic.
		if size > uint64(r.Len())/2 {
			return fmt.Errorf("graph: corrupt closure snapshot: closure size %d exceeds remaining payload", size)
		}
		closure := make([]Digraph, size)
		for j := range closure {
			if closure[j], err = decodeDigraph(r); err != nil {
				return fmt.Errorf("graph: corrupt closure snapshot: %w", err)
			}
		}
		symCache.Put(key, closure)
	}
	return nil
}

func encodeDigraph(buf *bytes.Buffer, g Digraph) {
	checkpoint.WriteUvarint(buf, uint64(g.n))
	for _, row := range g.out {
		checkpoint.WriteUvarint(buf, uint64(row))
	}
}

func decodeDigraph(r *bytes.Reader) (Digraph, error) {
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return Digraph{}, err
	}
	n := int(n64)
	if n < 1 || n > MaxProcs {
		return Digraph{}, fmt.Errorf("process count %d outside [1,%d]", n, MaxProcs)
	}
	rows := make([]bits.Set, n)
	for u := range rows {
		row, err := binary.ReadUvarint(r)
		if err != nil {
			return Digraph{}, err
		}
		rows[u] = bits.Set(row)
	}
	// FromRows validates the rows against the process range and re-forces
	// self-loops, so a corrupt snapshot cannot smuggle in a malformed graph.
	return FromRows(n, rows)
}
