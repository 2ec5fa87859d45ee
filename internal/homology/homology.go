// Package homology is the GF(2) chain-complex engine behind the
// repository's connectivity checks.
//
// The paper's impossibility arguments reduce to (k−1)-connectivity of
// protocol complexes (Thms 4.9/4.12), which the repository machine-checks
// through vanishing reduced Betti numbers over GF(2). The seed reduction in
// internal/topology packed simplexes into single machine words, which caps
// it at 2^16 vertices and 4-vertex simplexes; the PR-3 sparse engine
// removed both caps. This package now runs a hybrid-column engine on top of
// the same level tables:
//
//   - Levels store each dimension's simplexes as a flat arena of uint32
//     vertex ids (stride = vertex count), sorted lexicographically and
//     deduplicated — no packing limit, no map keys (levels.go).
//   - Boundary matrices are implicit CSC: a column's sorted row indices are
//     materialized on demand by binary search into the face level, and its
//     unreduced pivot is a single lookup (the face omitting the leading
//     vertex is the lexicographically largest facet), so the apparent-pairs
//     pass never touches full columns (reduce.go).
//   - Apparent pairs (discrete-Morse-flavored): each row is paired with the
//     first column whose unreduced pivot lands on it; paired columns have
//     pairwise-distinct lows, hence are independent, and install as pivots
//     with zero reduction work — they skip the queue entirely, composing
//     with the Chen–Kerber clearing twist (top dimension first, every pivot
//     row of ∂_{q+1} clears its column of ∂_q).
//   - Queued columns are hybrid: sorted sparse uint32 lists that promote to
//     bit-packed uint64 dense blocks once fill crosses the promotion
//     threshold, so XOR of hot columns is word-wide instead of merge-based
//     (columns.go). Column arenas, dense slabs and pivot tables are pooled
//     and recycled across dimensions and across ReducedBetti calls.
//   - The reduction shards across internal/par: contiguous column blocks
//     reduce locally in parallel against the frozen apparent table, and the
//     block survivors are reconciled sequentially in block order. GF(2)
//     rank is unique, so Betti numbers are identical across every
//     parallelism setting, engine, and representation (the same determinism
//     contract as the PR-2 solver sweep).
//
// The pure-sparse reduction survives as ReducedBettiSparse, a
// library-only reference for cross-checking; the two paths share the level
// tables but no reduction code.
package homology

import (
	"context"
	"fmt"

	"ksettop/internal/checkpoint"
	"ksettop/internal/obs"
	"ksettop/internal/par"
	"ksettop/internal/runctx"
)

var obsReductions = obs.DefaultRegistry().Counter("kset_homology_reductions_total",
	"per-dimension boundary-matrix reductions completed")

// Complex is the read surface the engine needs from a simplicial complex:
// the maximal simplexes as sorted vertex lists. *topology.AbstractComplex
// satisfies it.
type Complex interface {
	Facets() [][]int
}

// ReducedBetti computes the reduced GF(2) Betti numbers β̃_0 … β̃_maxDim of
// the complex on the hybrid engine: β̃_q = dim ker ∂_q − dim im ∂_{q+1}
// with the augmented chain complex, so β̃_0 is (components − 1). The empty
// complex is rejected, as in the seed implementation.
func ReducedBetti(c Complex, maxDim int) ([]int, error) {
	return reducedBettiOf(runctx.Base(), c, maxDim, false)
}

// ReducedBettiCtx is ReducedBetti bound to a context: ctx expiry cancels the
// reduction across all workers at shard/poll granularity and returns the
// context's cause wrapped as "homology: reduction aborted". A completed call
// is identical to ReducedBetti at every parallelism setting.
func ReducedBettiCtx(ctx context.Context, c Complex, maxDim int) ([]int, error) {
	return reducedBettiOf(ctx, c, maxDim, false)
}

// ReducedBettiSparse is ReducedBetti on the PR-3 pure-sparse reduction —
// merge-based column XOR, no apparent pass, no dense blocks — kept as an
// independent cross-check of the hybrid engine.
func ReducedBettiSparse(c Complex, maxDim int) ([]int, error) {
	return reducedBettiOf(runctx.Base(), c, maxDim, true)
}

// ReducedBettiSparseCtx is ReducedBettiSparse bound to a context.
func ReducedBettiSparseCtx(ctx context.Context, c Complex, maxDim int) ([]int, error) {
	return reducedBettiOf(ctx, c, maxDim, true)
}

func reducedBettiOf(ctx context.Context, c Complex, maxDim int, sparse bool) ([]int, error) {
	if maxDim < 0 {
		return nil, fmt.Errorf("homology: negative homology dimension %d", maxDim)
	}
	cc, err := NewChainComplex(c, maxDim+1)
	if err != nil {
		return nil, err
	}
	return cc.reducedBetti(ctx, maxDim, sparse)
}

// ReducedBetti computes β̃_0 … β̃_maxDim from the level table on the hybrid
// engine. The table must extend to dimension maxDim+1. Boundary matrices
// are built top dimension first so each reduction's pivot rows clear
// columns of the next one, and each matrix is dropped before the next is
// built.
func (cc *ChainComplex) ReducedBetti(maxDim int) ([]int, error) {
	return cc.reducedBetti(runctx.Base(), maxDim, false)
}

// ReducedBettiCtx is ReducedBetti bound to a context (see the package-level
// ReducedBettiCtx).
func (cc *ChainComplex) ReducedBettiCtx(ctx context.Context, maxDim int) ([]int, error) {
	return cc.reducedBetti(ctx, maxDim, false)
}

// ReducedBettiSparse is ReducedBetti on the pure-sparse reduction.
func (cc *ChainComplex) ReducedBettiSparse(maxDim int) ([]int, error) {
	return cc.reducedBetti(runctx.Base(), maxDim, true)
}

// ReducedBettiSparseCtx is ReducedBettiSparse bound to a context.
func (cc *ChainComplex) ReducedBettiSparseCtx(ctx context.Context, maxDim int) ([]int, error) {
	return cc.reducedBetti(ctx, maxDim, true)
}

func (cc *ChainComplex) reducedBetti(ctx context.Context, maxDim int, sparse bool) ([]int, error) {
	if maxDim < 0 || maxDim+1 > cc.Dim() {
		return nil, fmt.Errorf("homology: dimension %d outside level table (cap %d)", maxDim, cc.Dim()-1)
	}
	if cc.IsEmpty() {
		return nil, fmt.Errorf("homology: reduced homology of the empty complex is undefined here")
	}
	// One Ctl spans every dimension's reduction, bound once to ctx; an
	// already-expired context is rejected synchronously (the async Bind
	// watcher could lose the race against a small first reduction).
	ctl := &par.Ctl{}
	if ctx != nil && ctx.Err() != nil {
		return nil, abortErr(ctl, ctx)
	}
	release := ctl.Bind(ctx)
	defer release()
	rank := make([]int, maxDim+2)
	rank[0] = 1 // augmentation ∂_0: rank 1 on a nonempty complex
	var cleared []bool
	engine := "hybrid"
	if sparse {
		engine = "sparse"
	}
	// A checkpoint runner on the context makes the reduction durable at
	// dimension granularity: a staged section with this workload's
	// fingerprint restarts the loop at the saved dimension with the saved
	// rank vector and clearing bitmap (see homology_checkpoint.go).
	runner := checkpoint.FromContext(ctx)
	startQ := maxDim + 1
	var prog *reduceProgress
	if runner != nil {
		fp := cc.checkpointFingerprint(maxDim, sparse)
		// Seed the progress record with the initial rank vector so a capture
		// taken before the first dimension boundary is still a valid
		// (zero-progress) section rather than one the decoder rejects.
		prog = &reduceProgress{maxDim: maxDim, sparse: sparse, nextQ: startQ,
			rank: append([]int(nil), rank...)}
		if payload, ok := runner.Resume(kindHomologyReduction, fp); ok {
			restored, err := decodeReduceProgress(payload, cc, maxDim, sparse)
			if err != nil {
				obs.DefaultLogger().Warnf("checkpoint: homology section unusable (%v); recomputing", err)
			} else {
				prog = restored
				startQ = restored.nextQ
				copy(rank, restored.rank)
				cleared = append([]bool(nil), restored.cleared...)
			}
		}
		unregister := runner.Register(kindHomologyReduction, fp, prog.encode)
		defer unregister()
	}
	for q := startQ; q >= 1; q-- {
		if cc.levels[q].Count() == 0 {
			cleared = nil
			prog.update(q-1, rank, cleared)
			continue
		}
		_, span := obs.StartSpan(ctx, "homology.reduce")
		span.SetInt("dim", int64(q))
		span.SetInt("columns", int64(cc.levels[q].Count()))
		span.SetAttr("engine", engine)
		m := cc.Boundary(q)
		var err error
		if sparse {
			rank[q], cleared, err = m.reduceSparse(ctl, cleared)
		} else {
			rank[q], cleared, err = m.reduceHybrid(ctl, cleared)
		}
		if err != nil {
			span.End()
			return nil, abortErr(ctl, ctx)
		}
		obsReductions.Inc()
		span.SetInt("rank", int64(rank[q]))
		span.End()
		prog.update(q-1, rank, cleared)
	}
	betti := make([]int, maxDim+1)
	for q := 0; q <= maxDim; q++ {
		kernel := cc.levels[q].Count() - rank[q]
		betti[q] = kernel - rank[q+1]
	}
	return betti, nil
}

// abortErr resolves the user-facing error of a cancelled reduction: the
// sweep's recorded cause (context error, recovered worker panic, injected
// fault) if any, else the context's, else plain cancellation.
func abortErr(ctl *par.Ctl, ctx context.Context) error {
	cause := ctl.Cause()
	if cause == nil && ctx != nil {
		cause = context.Cause(ctx)
	}
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("homology: reduction aborted: %w", cause)
}
