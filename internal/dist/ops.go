package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/par"
)

// A sweep job names an op, a model (in the cli wire grammar, see
// cli.FormatModel) and an optional shared work budget in ranks. The op
// defines what one worker computes over a rank shard [lo, hi) of the
// model's closure enumeration and how shard payloads merge; both sides are
// deterministic, so the merged result is byte-identical to running the op
// sequentially over [0, Size()).
type Job struct {
	// Op names a registered op ("count", "enum").
	Op string `json:"op"`
	// Model is the cli-grammar model spec (FormatModel output round-trips
	// any model).
	Model string `json:"model"`
	// Budget, when > 0, bounds the total ranks the sweep may scan before a
	// typed budget error surfaces (see Budget).
	Budget int64 `json:"budget,omitempty"`
}

// Registered op names.
const (
	// OpCount counts the closure elements in a rank shard; the merge sums
	// shard counts. Payload: uvarint(count).
	OpCount = "count"
	// OpEnum serializes the closure elements of a rank shard in ascending
	// rank order; the merge concatenates shards in shard order, so the
	// result is the byte-identical serialization of the full sequential
	// enumeration. Payload per element: uvarint(set bits), then uvarint
	// deltas of the edge-bit positions.
	OpEnum = "enum"
)

// Op is one distributable sweep kind: Run computes a shard payload, Merge
// folds the per-shard payloads (indexed by shard, ascending) into the final
// result. Both must be deterministic functions of their inputs. Resume,
// when set, is Run with durable progress: it initializes from st (a rank
// position + op-specific partial accumulator recorded by an earlier
// interrupted execution of the same shard) and writes progress back through
// it, producing a payload byte-identical to a cold Run. Ops without Resume
// simply recompute from lo on a checkpointing worker.
type Op struct {
	Run    func(ctx context.Context, m *model.ClosedAbove, lo, hi int64) ([]byte, error)
	Resume func(ctx context.Context, m *model.ClosedAbove, lo, hi int64, st *ShardState) ([]byte, error)
	Merge  func(parts [][]byte) ([]byte, error)
}

var (
	opMu  sync.RWMutex
	opSet = map[string]Op{}
)

// RegisterOp adds a named op. Registering a duplicate name panics — op
// names are wire identifiers and must be unambiguous.
func RegisterOp(name string, op Op) {
	opMu.Lock()
	defer opMu.Unlock()
	if _, ok := opSet[name]; ok {
		panic(fmt.Sprintf("dist: duplicate op %q", name))
	}
	opSet[name] = op
}

func errUnknownOp(name string) error { return fmt.Errorf("dist: unknown op %q", name) }

// LookupOp resolves a registered op by name.
func LookupOp(name string) (Op, bool) {
	opMu.RLock()
	defer opMu.RUnlock()
	op, ok := opSet[name]
	return op, ok
}

// registeredOps returns the names of every registered op, sorted.
func registeredOps() []string {
	opMu.RLock()
	defer opMu.RUnlock()
	return slices.Sorted(maps.Keys(opSet))
}

func init() {
	RegisterOp(OpCount, Op{Run: runCount, Resume: runCountDurable, Merge: mergeCount})
	RegisterOp(OpEnum, Op{Run: runEnum, Resume: runEnumDurable, Merge: mergeEnum})
}

// rangeMasksCtx drives e.RangeMasks over [lo, hi) with cooperative
// cancellation: the yield wrapper polls every ~1k ranks, so a cancelled
// lease or tripped budget stops a worker well within one shard.
func rangeMasksCtx(ctx context.Context, e *model.Enumeration, lo, hi int64, yield func(mask bits.Words) bool) error {
	if ctx != nil && ctx.Err() != nil {
		return context.Cause(ctx)
	}
	ctl := &par.Ctl{}
	release := ctl.Bind(ctx)
	defer release()
	const pollMask = 1023
	seen := int64(0)
	cancelled := false
	e.RangeMasks(lo, hi, func(mask bits.Words) bool {
		if seen&pollMask == 0 && ctl.Stopped() {
			cancelled = true
			return false
		}
		seen++
		return yield(mask)
	})
	if cancelled || ctl.Stopped() {
		return fmt.Errorf("dist: shard aborted: %w", context.Cause(ctx))
	}
	return nil
}

func runCount(ctx context.Context, m *model.ClosedAbove, lo, hi int64) ([]byte, error) {
	e, err := m.Enumeration()
	if err != nil {
		return nil, err
	}
	var count uint64
	if err := rangeMasksCtx(ctx, e, lo, hi, func(bits.Words) bool {
		count++
		return true
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	checkpoint.WriteUvarint(&buf, count)
	return buf.Bytes(), nil
}

func mergeCount(parts [][]byte) ([]byte, error) {
	var total uint64
	for i, p := range parts {
		n, err := binary.ReadUvarint(bytes.NewReader(p))
		if err != nil {
			return nil, fmt.Errorf("dist: count shard %d payload: %w", i, err)
		}
		total += n
	}
	var buf bytes.Buffer
	checkpoint.WriteUvarint(&buf, total)
	return buf.Bytes(), nil
}

// DecodeCount unpacks a merged OpCount result.
func DecodeCount(payload []byte) (int64, error) {
	n, err := binary.ReadUvarint(bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("dist: count payload: %w", err)
	}
	return int64(n), nil
}

func runEnum(ctx context.Context, m *model.ClosedAbove, lo, hi int64) ([]byte, error) {
	e, err := m.Enumeration()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var positions []int
	if err := rangeMasksCtx(ctx, e, lo, hi, func(mask bits.Words) bool {
		positions = positions[:0]
		mask.ForEachBit(func(bit int) { positions = append(positions, bit) })
		sort.Ints(positions)
		checkpoint.WriteUvarint(&buf, uint64(len(positions)))
		prev := 0
		for _, p := range positions {
			checkpoint.WriteUvarint(&buf, uint64(p-prev))
			prev = p
		}
		return true
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func mergeEnum(parts [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	for _, p := range parts {
		buf.Write(p)
	}
	return buf.Bytes(), nil
}

// jobKey is the canonical identity of one sweep: op, canonical generator
// keys, rank-space size, shard count and budget. The journal header stores
// it so a warm restart only ever resumes the SAME sweep — same op, same
// model, same sharding.
func jobKey(job Job, m *model.ClosedAbove, total int64, shards int) string {
	gens := m.Generators()
	keys := make([]string, len(gens))
	for i, g := range gens {
		keys[i] = g.Key()
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d", job.Op, memo.Key("dist", m.N(), keys), total, shards, job.Budget)
}
