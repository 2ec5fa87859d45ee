package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/model"
)

// This file is the worker-side durability layer: a worker with a checkpoint
// runner records per-shard sweep progress (next unprocessed rank + the op's
// partial accumulator) into an in-memory table that the runner persists on
// its cadence and on shutdown. A restarted worker reloads the table, and
// when the coordinator re-leases a shard it was executing — same op, model
// and rank range — the op resumes from the recorded rank instead of rank
// lo. Ops are deterministic functions of their rank range, so a resumed
// shard payload is byte-identical to a cold one; the coordinator cannot
// tell the difference (and its CRC check would catch it if it could).

// kindDistShards is the checkpoint section kind of the shard-progress table.
const kindDistShards = "dist.shards"

const distShardsVersion = 1

// shardFlushMask paces in-run progress updates: state is snapshotted into
// the table every 4096 ranks, bounding a crash's recompute cost per shard.
const shardFlushMask = 4095

// distShardsFP is the section fingerprint. The table is workload-agnostic —
// whatever shards were in flight — so the fingerprint only pins the format.
func distShardsFP() uint64 {
	h := fnv.New64a()
	io.WriteString(h, "dist.shards.v1")
	return h.Sum64()
}

// ShardState is the durable progress of one in-flight shard execution: the
// next unprocessed enumeration rank and the op's partial accumulator in an
// op-specific encoding (OpCount: 8-byte LE count; OpEnum: the payload bytes
// emitted so far). The executing op writes through Set, the checkpoint
// capture reads through Snapshot.
type ShardState struct {
	mu  sync.Mutex
	pos int64
	acc []byte
}

// Set records progress: ranks below pos are folded into acc.
func (s *ShardState) Set(pos int64, acc []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pos = pos
	s.acc = append(s.acc[:0], acc...)
}

// Snapshot returns the recorded position and a copy of the accumulator.
func (s *ShardState) Snapshot() (int64, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos, append([]byte(nil), s.acc...)
}

// shardKey is the resume identity of one grant. Two leases with the same
// key compute the same payload, so progress is transferable between them.
func shardKey(req ExecRequest) string {
	return fmt.Sprintf("%s|%s|%d|%d", req.Op, req.Model, req.From, req.To)
}

// shardTable is the worker's mutex-guarded in-flight shard progress map.
type shardTable struct {
	mu     sync.Mutex
	states map[string]*ShardState
	active map[string]bool
}

func newShardTable() *shardTable {
	return &shardTable{states: map[string]*ShardState{}, active: map[string]bool{}}
}

// claim returns the state to run a grant against: the restored/previous
// entry when the shard is known, a fresh one otherwise. A key already
// executing returns nil — the duplicate grant runs undurably rather than
// racing the first on one accumulator.
func (t *shardTable) claim(key string, from int64) *ShardState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active[key] {
		return nil
	}
	st := t.states[key]
	if st == nil {
		st = &ShardState{pos: from}
		t.states[key] = st
	}
	t.active[key] = true
	return st
}

// release ends a grant's execution; done drops the entry (the shard's
// payload was delivered — resuming it again would be wasted work).
func (t *shardTable) release(key string, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, key)
	if done {
		delete(t.states, key)
	}
}

// encode serializes the table as a checkpoint section payload: entries
// sorted by key for deterministic bytes.
func (t *shardTable) encode() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.states))
	for k := range t.states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteByte(distShardsVersion)
	checkpoint.WriteUvarint(&buf, uint64(len(keys)))
	for _, k := range keys {
		pos, acc := t.states[k].Snapshot()
		checkpoint.WriteUvarint(&buf, uint64(len(k)))
		buf.WriteString(k)
		checkpoint.WriteUvarint(&buf, uint64(pos))
		checkpoint.WriteUvarint(&buf, uint64(len(acc)))
		buf.Write(acc)
	}
	return buf.Bytes(), nil
}

// restore merges a decoded checkpoint section into the table (idle entries
// only; a live execution is never overwritten).
func (t *shardTable) restore(payload []byte) error {
	r := bytes.NewReader(payload)
	ver, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("version: %w", err)
	}
	if ver != distShardsVersion {
		return fmt.Errorf("version %d, want %d", ver, distShardsVersion)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("entry count: %w", err)
	}
	if n > 1<<20 {
		return fmt.Errorf("entry count %d out of range", n)
	}
	type entry struct {
		key string
		pos int64
		acc []byte
	}
	entries := make([]entry, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("entry %d key length: %w", i, err)
		}
		if klen == 0 || klen > 4096 {
			return fmt.Errorf("entry %d key length %d out of range", i, klen)
		}
		kb := make([]byte, klen)
		if _, err := io.ReadFull(r, kb); err != nil {
			return fmt.Errorf("entry %d key: %w", i, err)
		}
		pos, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("entry %d pos: %w", i, err)
		}
		alen, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("entry %d acc length: %w", i, err)
		}
		if alen > uint64(r.Len()) {
			return fmt.Errorf("entry %d acc length %d exceeds payload", i, alen)
		}
		acc := make([]byte, alen)
		if _, err := io.ReadFull(r, acc); err != nil {
			return fmt.Errorf("entry %d acc: %w", i, err)
		}
		entries = append(entries, entry{key: string(kb), pos: int64(pos), acc: acc})
	}
	if r.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Len())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entries {
		if t.active[e.key] {
			continue
		}
		t.states[e.key] = &ShardState{pos: e.pos, acc: e.acc}
	}
	return nil
}

// runCountDurable is runCount resuming from and writing through st (nil st:
// identical to runCount). Accumulator encoding: 8-byte LE running count.
func runCountDurable(ctx context.Context, m *model.ClosedAbove, lo, hi int64, st *ShardState) ([]byte, error) {
	e, err := m.Enumeration()
	if err != nil {
		return nil, err
	}
	start := lo
	var count uint64
	if st != nil {
		if pos, acc := st.Snapshot(); pos > lo && pos <= hi && len(acc) == 8 {
			start = pos
			count = binary.LittleEndian.Uint64(acc)
		}
	}
	seen := int64(0)
	if err := rangeMasksCtx(ctx, e, start, hi, func(mask bits.Words) bool {
		count++
		seen++
		if st != nil && seen&shardFlushMask == 0 {
			var acc [8]byte
			binary.LittleEndian.PutUint64(acc[:], count)
			st.Set(start+seen, acc[:])
		}
		return true
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	checkpoint.WriteUvarint(&buf, count)
	return buf.Bytes(), nil
}

// runEnumDurable is runEnum resuming from and writing through st (nil st:
// identical to runEnum). Accumulator encoding: the payload bytes emitted
// for ranks below pos — OpEnum payloads are per-rank concatenations, so the
// prefix is itself the partial payload.
func runEnumDurable(ctx context.Context, m *model.ClosedAbove, lo, hi int64, st *ShardState) ([]byte, error) {
	e, err := m.Enumeration()
	if err != nil {
		return nil, err
	}
	start := lo
	var buf bytes.Buffer
	if st != nil {
		if pos, acc := st.Snapshot(); pos > lo && pos <= hi {
			start = pos
			buf.Write(acc)
		}
	}
	var positions []int
	seen := int64(0)
	if err := rangeMasksCtx(ctx, e, start, hi, func(mask bits.Words) bool {
		positions = positions[:0]
		mask.ForEachBit(func(bit int) { positions = append(positions, bit) })
		sort.Ints(positions)
		checkpoint.WriteUvarint(&buf, uint64(len(positions)))
		prev := 0
		for _, p := range positions {
			checkpoint.WriteUvarint(&buf, uint64(p-prev))
			prev = p
		}
		seen++
		if st != nil && seen&shardFlushMask == 0 {
			st.Set(start+seen, buf.Bytes())
		}
		return true
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
