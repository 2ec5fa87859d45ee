package protocol

// This file is the search layer of the decision-map solver: the seed-style
// sequential backtracking oracle (SearchSeq) and the conflict-driven
// backjumping (CBJ) search with nogood learning that the parallel engine's
// probe phase and subtree tasks run.
//
// Both searches branch identically — fail-first view selection
// (cspState.selectView) and the tables' static value order — so the first
// solution either one reaches is the same lexicographically-first witness.
// The CBJ search additionally resolves every dead end to the set of
// decision literals that caused it (conflict analysis over the
// firstSetter/removedBy reason chains), learns that set as a nogood, and
// jumps straight back to the deepest contributing decision. Skipped
// subtrees are covered by an implied clause, so they are solution-free:
// pruning can never change which witness is found first, only how many
// nodes the refutation costs.

// searchSeq is the sequential oracle: plain forward-checking backtracking,
// counting one node per branch point, with no learning, no backjumping and
// no fact pre-propagation. Kept as the SearchSeq cross-check for the
// parallel engine. stop, when non-nil, is polled about every 128 nodes;
// returning true aborts with errSolveCancelled (the entry layer swaps in
// the actual cause).
func (s *cspState) searchSeq(nodes *int, budget int, stop func() bool) (bool, error) {
	best := s.selectView()
	if best == -1 {
		return true, nil // all views assigned
	}
	if *nodes >= budget {
		return false, errBudget(budget, *nodes)
	}
	if stop != nil && *nodes&127 == 0 && stop() {
		return false, errSolveCancelled
	}
	*nodes++
	dom := s.domains[best]
	for _, val := range s.t.valueOrder {
		if dom&(1<<uint(val)) == 0 {
			continue
		}
		mark := len(s.trail)
		if s.assign(best, val, true) {
			ok, err := s.searchSeq(nodes, budget, stop)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		s.unwind(mark)
	}
	return false, nil
}

// searchStatus is the outcome of one CBJ search (or subtree thereof).
type searchStatus int8

const (
	// statusRefuted: the subtree holds no solution (exhaustively shown,
	// modulo learned clauses, which are implied).
	statusRefuted searchStatus = iota
	// statusSolved: a full consistent assignment was reached; the state is
	// left ASSIGNED so the caller can read the witness.
	statusSolved
	// statusCapped: the node cap was hit; the frames are unwound.
	statusCapped
	// statusCancelled: the stop callback fired; the frames are unwound.
	statusCancelled
	// statusSplit: the root frame handed its untried values to the spawn
	// hook; the explored part is refuted and the frames are unwound.
	statusSplit
)

// cbjFrame is one open decision level of the CBJ search.
type cbjFrame struct {
	view    int
	dom     uint16 // domain snapshot at frame creation
	nextIdx int    // next valueOrder position to try
	mark    int    // trail length at frame creation
	curIdx  int    // valueOrder position currently decided at this level
	curKey  int32  // literal currently decided at this level
	// conf accumulates the conflict literals of every refuted child,
	// excluding this level's own literal, plus the reasons any value was
	// already missing from dom at creation. When the level exhausts, conf
	// IS the conflict set of the whole subtree.
	conf []int32
}

// cbjCtx carries the mutable context of one CBJ search.
type cbjCtx struct {
	s *cspState
	// nodes counts branch points (frames created) by THIS context —
	// deterministic given the state's frozen store and prefix.
	nodes int
	// cap aborts the search with statusCapped once nodes reaches it.
	cap int
	// stop, when non-nil, is polled about every 128 nodes with the current
	// node count; returning true aborts with statusCancelled. The count lets
	// the parallel engine's budget accounting watch a running task's
	// progress without touching the search state.
	stop func(nodes int) bool
	// spawn, when non-nil, enables work splitting: once nodes exceeds
	// splitThreshold and ≥2 value branches are still untried across the
	// open frames, the ENTIRE remaining frontier — every untried value of
	// every open frame, i.e. the spine of the depth-first search — is
	// handed out as value-branch prefix tasks (branch-index suffix plus
	// decision-literal keys, both relative to this search's own prefix)
	// and the search retires with statusSplit. Everything already explored
	// was exhaustively refuted, so the spawned prefixes partition exactly
	// the unexplored remainder.
	spawn          func(pathSuffix []uint8, decisions []int32)
	splitThreshold int
	frames         []cbjFrame
}

// splitSpine spawns every untried value branch of every open frame as a
// prefix task, reporting whether anything was actually handed out (it
// declines when fewer than two branches remain — not worth a split).
func (c *cbjCtx) splitSpine() bool {
	s := c.s
	total := 0
	for i := range c.frames {
		f := &c.frames[i]
		for idx := f.nextIdx; idx < s.numValues; idx++ {
			if f.dom&(1<<uint(s.t.valueOrder[idx])) != 0 {
				total++
			}
		}
	}
	if total < 2 {
		return false
	}
	var chainIdx []uint8
	var chainKey []int32
	for i := range c.frames {
		f := &c.frames[i]
		for idx := f.nextIdx; idx < s.numValues; idx++ {
			val := s.t.valueOrder[idx]
			if f.dom&(1<<uint(val)) == 0 {
				continue
			}
			suffix := append(append([]uint8(nil), chainIdx...), uint8(idx))
			keys := append(append([]int32(nil), chainKey...), litKey(f.view, val, s.numValues))
			c.spawn(suffix, keys)
		}
		chainIdx = append(chainIdx, uint8(f.curIdx))
		chainKey = append(chainKey, f.curKey)
	}
	return true
}

// popFrames unwinds every open frame (task prefix assumptions and
// pre-propagated facts below frame 0 stay assigned).
func (c *cbjCtx) popFrames() {
	if len(c.frames) == 0 {
		return
	}
	for i := range c.frames {
		c.s.frameOf[c.frames[i].view] = -1
	}
	c.s.unwind(c.frames[0].mark)
	c.frames = c.frames[:0]
}

// closeLevel retires the top frame, whose subtree is refuted with conflict
// set confSet (which does not involve the frame's own literal, or the frame
// exhausted all values). It learns the clause and backjumps to the deepest
// frame contributing to confSet; ok=false means no open frame contributes —
// the whole search (below the assumptions) is refuted.
func (c *cbjCtx) closeLevel(confSet []int32) bool {
	s := c.s
	s.learnNogood(confSet)
	top := len(c.frames) - 1
	s.frameOf[c.frames[top].view] = -1
	c.frames = c.frames[:top]
	target := -1
	for _, key := range confSet {
		if fo := s.frameOf[key/int32(s.numValues)]; int(fo) > target {
			target = int(fo)
		}
	}
	if target == -1 {
		c.popFrames()
		return false
	}
	for i := len(c.frames) - 1; i > target; i-- {
		s.frameOf[c.frames[i].view] = -1
	}
	c.frames = c.frames[:target+1]
	tf := &c.frames[target]
	s.unwind(tf.mark)
	mergeConf(&tf.conf, confSet, tf.curKey)
	return true
}

// run explores the state's remaining search space exhaustively. On
// statusSolved the state keeps the witness assignment; every other status
// leaves the state unwound to the pre-search trail (facts and assumptions
// intact).
func (c *cbjCtx) run() searchStatus {
	s := c.s
	for {
		// Descend: open a frame on the fail-first view.
		best := s.selectView()
		if best == -1 {
			return statusSolved
		}
		if c.nodes >= c.cap {
			c.popFrames()
			return statusCapped
		}
		if c.stop != nil && c.nodes&127 == 0 && c.stop(c.nodes) {
			c.popFrames()
			return statusCancelled
		}
		c.nodes++
		f := cbjFrame{view: best, dom: s.domains[best], mark: len(s.trail)}
		if s.t.initDomains[best] != f.dom {
			// Values already pruned from this view are refuted by their
			// removal reasons; fold those into the level's base conflict
			// set so exhaustion stays sound under backjumping.
			s.conflict, s.conflictID = conflictView, int32(best)
			f.conf = s.analyzeConflict()
			s.conflict = conflictNone
		}
		s.frameOf[best] = int32(len(c.frames))
		c.frames = append(c.frames, f)

	advance:
		for {
			fi := len(c.frames) - 1
			fr := &c.frames[fi]
			if c.spawn != nil && c.nodes > c.splitThreshold {
				if c.splitSpine() {
					c.popFrames()
					return statusSplit
				}
				// Too little left to split; back off deterministically.
				c.splitThreshold = c.nodes + 1024
			}
			vi := -1
			for idx := fr.nextIdx; idx < s.numValues; idx++ {
				if fr.dom&(1<<uint(s.t.valueOrder[idx])) != 0 {
					vi = idx
					break
				}
			}
			if vi == -1 {
				// Level exhausted: its accumulated conflict set refutes
				// the whole subtree.
				if !c.closeLevel(fr.conf) {
					return statusRefuted
				}
				continue advance
			}
			fr.nextIdx = vi + 1
			val := s.t.valueOrder[vi]
			fr.curIdx = vi
			fr.curKey = litKey(fr.view, val, s.numValues)
			if s.assign(fr.view, val, true) {
				break // descend deeper
			}
			confSet := s.analyzeConflict()
			if containsKey(confSet, fr.curKey) {
				// Learn BEFORE unwinding the failed assignment: the clause's
				// matched counter starts fully saturated, which is only true
				// while every conflict literal — including this level's own —
				// is still on the trail. (Learning after the unwind left the
				// counter permanently one high, so the clause fired with one
				// literal unassigned: unsound pruning.)
				s.learnNogood(confSet)
				s.unwind(fr.mark)
				mergeConf(&fr.conf, confSet, fr.curKey)
				continue advance
			}
			s.unwind(fr.mark)
			// The conflict does not involve this level's value at all:
			// every sibling value dies the same way, so close the level
			// with the child's conflict set directly.
			if !c.closeLevel(confSet) {
				return statusRefuted
			}
		}
	}
}

// containsKey reports whether sorted keys contains key.
func containsKey(keys []int32, key int32) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
		if k > key {
			return false
		}
	}
	return false
}

// mergeConf merges sorted src (minus exclude) into the sorted set *dst.
func mergeConf(dst *[]int32, src []int32, exclude int32) {
	a := *dst
	merged := make([]int32, 0, len(a)+len(src))
	i, j := 0, 0
	for i < len(a) || j < len(src) {
		var k int32
		switch {
		case j >= len(src) || (i < len(a) && a[i] <= src[j]):
			k = a[i]
			i++
		default:
			k = src[j]
			j++
		}
		if k == exclude {
			continue
		}
		if n := len(merged); n > 0 && merged[n-1] == k {
			continue
		}
		merged = append(merged, k)
	}
	*dst = merged
}
