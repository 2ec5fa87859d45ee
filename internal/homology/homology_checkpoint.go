package homology

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"ksettop/internal/checkpoint"
)

// This file is the durability layer of the Betti-number reduction. Progress
// is checkpointed at DIMENSION granularity — the reduction's sequential
// unit: after ∂_q is reduced, the rank vector so far and the clearing
// bitmap handed to ∂_{q-1} fully determine the rest of the computation, and
// GF(2) rank is unique, so a run resumed from any dimension boundary
// reproduces the exact Betti vector of an uninterrupted run. Progress
// inside a dimension (block phase, apparent pairs) is deliberately not
// persisted: it is scheduling-shaped intermediate state, and re-reducing
// one dimension is the bounded recompute cost of a crash.

// kindHomologyReduction is the checkpoint section kind of a reduction.
const kindHomologyReduction = "homology.reduction"

const homologyCkptVersion = 1

// checkpointFingerprint identifies the exact reduction workload: target
// dimension, engine, and the full level-table content (sizes, packing and
// vertex data). Any other complex or flag set recomputes cold.
func (cc *ChainComplex) checkpointFingerprint(maxDim int, sparse bool) uint64 {
	h := fnv.New64a()
	io.WriteString(h, "homology.reduction.v1")
	var b [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wu(uint64(maxDim))
	if sparse {
		wu(1)
	} else {
		wu(0)
	}
	wu(uint64(len(cc.levels)))
	buf := make([]byte, 0, 4096)
	for _, l := range cc.levels {
		wu(uint64(l.size))
		wu(uint64(l.width))
		wu(uint64(l.Count()))
		buf = buf[:0]
		for _, v := range l.verts {
			buf = binary.LittleEndian.AppendUint32(buf, v)
			if len(buf) >= 4096 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(buf)
		buf = buf[:0]
		for _, k := range l.keys {
			buf = binary.LittleEndian.AppendUint64(buf, k)
			if len(buf) >= 4096 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// reduceProgress is the mutex-guarded dimension-boundary state shared
// between the reduction loop (writer) and the checkpoint runner's capture
// goroutine (reader).
type reduceProgress struct {
	mu      sync.Mutex
	maxDim  int
	sparse  bool
	nextQ   int    // next dimension the loop will reduce (maxDim+1 .. 0; 0 = done)
	rank    []int  // rank[q] for already-reduced dimensions
	cleared []bool // clearing bitmap for dimension nextQ
}

// update records a completed dimension boundary. Safe on a nil receiver
// (no checkpoint runner armed).
func (p *reduceProgress) update(nextQ int, rank []int, cleared []bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextQ = nextQ
	p.rank = append(p.rank[:0], rank...)
	p.cleared = append(p.cleared[:0], cleared...)
}

// encode serializes the progress state as a checkpoint section payload.
func (p *reduceProgress) encode() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf bytes.Buffer
	buf.WriteByte(homologyCkptVersion)
	checkpoint.WriteUvarint(&buf, uint64(p.maxDim))
	if p.sparse {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	checkpoint.WriteUvarint(&buf, uint64(p.nextQ))
	checkpoint.WriteUvarint(&buf, uint64(len(p.rank)))
	for _, r := range p.rank {
		checkpoint.WriteUvarint(&buf, uint64(r))
	}
	checkpoint.WriteUvarint(&buf, uint64(len(p.cleared)))
	packed := make([]byte, (len(p.cleared)+7)/8)
	for i, c := range p.cleared {
		if c {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	buf.Write(packed)
	return buf.Bytes(), nil
}

// decodeReduceProgress parses and validates a checkpoint section against
// the live reduction parameters.
func decodeReduceProgress(payload []byte, cc *ChainComplex, maxDim int, sparse bool) (*reduceProgress, error) {
	r := bytes.NewReader(payload)
	ver, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("version: %w", err)
	}
	if ver != homologyCkptVersion {
		return nil, fmt.Errorf("version %d, want %d", ver, homologyCkptVersion)
	}
	gotMaxDim, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("maxDim: %w", err)
	}
	if int(gotMaxDim) != maxDim {
		return nil, fmt.Errorf("maxDim %d, want %d", gotMaxDim, maxDim)
	}
	sparseByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if (sparseByte == 1) != sparse {
		return nil, fmt.Errorf("engine mismatch")
	}
	nextQ, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("nextQ: %w", err)
	}
	if nextQ > uint64(maxDim+1) {
		return nil, fmt.Errorf("nextQ %d out of range", nextQ)
	}
	rankLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("rank length: %w", err)
	}
	if rankLen != uint64(maxDim+2) {
		return nil, fmt.Errorf("rank length %d, want %d", rankLen, maxDim+2)
	}
	p := &reduceProgress{maxDim: maxDim, sparse: sparse, nextQ: int(nextQ)}
	p.rank = make([]int, rankLen)
	for i := range p.rank {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", i, err)
		}
		p.rank[i] = int(v)
	}
	clearedLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("cleared length: %w", err)
	}
	if p.nextQ >= 1 && clearedLen != 0 && clearedLen != uint64(cc.levels[p.nextQ].Count()) {
		return nil, fmt.Errorf("cleared length %d, want 0 or %d", clearedLen, cc.levels[p.nextQ].Count())
	}
	packed := make([]byte, (clearedLen+7)/8)
	if _, err := io.ReadFull(r, packed); err != nil {
		return nil, fmt.Errorf("cleared bits: %w", err)
	}
	if clearedLen > 0 {
		p.cleared = make([]bool, clearedLen)
		for i := range p.cleared {
			p.cleared[i] = packed[i/8]&(1<<(i%8)) != 0
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return p, nil
}
