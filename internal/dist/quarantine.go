package dist

import (
	"bytes"
	"context"
	"sync"
	"time"

	"ksettop/internal/cli"
)

// This file is the coordinator's trust ledger: per-worker health scores fed
// by divergence and transport evidence, a circuit breaker that quarantines a
// worker whose score crosses the threshold (its leases are revoked, its ring
// vnodes are skipped in placement, its in-flight shards re-dispatch), and a
// half-open probe that re-admits it after exponential backoff by re-running
// a known-answer battery — one job per registered op — and comparing bytes.

// Evidence weights. A byte divergence (losing a quorum vote, a hedge-loser
// mismatch) is the Byzantine signal and counts full; a corrupt response is
// nearly as damning (the worker checksummed garbage); plain transport
// failures — timeouts, refused connections, 5xx — are crash-fault noise and
// count a quarter, decayed by successes so a slow-but-honest worker never
// trips.
const (
	divergenceScore = 1.0
	corruptScore    = 1.0
	transportScore  = 0.25
	successDecay    = 0.5
)

// probeModel is the model of the known-answer battery a half-open probe
// re-executes on a quarantined worker, one job per registered op; each op's
// reference bytes are computed locally on first use and cached. Tiny on
// purpose: a probe must be cheap enough to repeat forever.
const probeModel = "star:n=3"

// workerHealth is one worker's trust state, guarded by Coordinator.mu.
type workerHealth struct {
	score       float64   // accumulated divergence/transport evidence
	quarantined bool      // circuit open: excluded from placement
	since       time.Time // when the current quarantine (or extension) began
	trips       int       // consecutive failed probes + the original trip, drives backoff
	probing     bool      // a half-open probe is in flight
}

func (c *Coordinator) quarantineEnabled() bool { return c.cfg.QuarantineThreshold >= 0 }

// healthLocked returns worker's health record, creating it on first use.
// Callers hold c.mu.
func (c *Coordinator) healthLocked(worker string) *workerHealth {
	h := c.health[worker]
	if h == nil {
		h = &workerHealth{}
		c.health[worker] = h
	}
	return h
}

// eligible reports whether worker may receive leases: alive per the failure
// detector and not quarantined.
func (c *Coordinator) eligible(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[worker]
	return c.live[worker] && (h == nil || !h.quarantined)
}

// EligibleWorkers reports how many workers are live AND trusted — the
// placement candidate set. Falling below the degrade floor switches sweeps
// to local compute.
func (c *Coordinator) EligibleWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for w, ok := range c.live {
		if h := c.health[w]; ok && (h == nil || !h.quarantined) {
			n++
		}
	}
	return n
}

// QuarantinedWorkers reports how many workers are currently quarantined.
func (c *Coordinator) QuarantinedWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.health {
		if h.quarantined {
			n++
		}
	}
	return n
}

func (c *Coordinator) quarantinedGaugeLocked() {
	n := int64(0)
	for _, h := range c.health {
		if h.quarantined {
			n++
		}
	}
	c.met.quarantinedWorkers.Set(n)
}

// recordDivergence charges worker with one byte-divergence event on shard
// and trips quarantine at the threshold.
func (c *Coordinator) recordDivergence(worker string, shard int) {
	if worker == localWorker {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	h.score += divergenceScore
	c.log.Warnf("dist: worker %s diverged on shard %d (score %.2f)", worker, shard, h.score)
	c.maybeQuarantineLocked(worker, h)
}

// recordFailure charges worker with transport-class evidence (weight
// transportScore or corruptScore).
func (c *Coordinator) recordFailure(worker string, weight float64) {
	if worker == localWorker {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	h.score += weight
	c.maybeQuarantineLocked(worker, h)
}

// recordSuccess decays worker's score on a committed result, so transient
// transport noise never accumulates into a trip.
func (c *Coordinator) recordSuccess(worker string) {
	if worker == localWorker {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	if h.score > 0 {
		h.score -= successDecay
		if h.score < 0 {
			h.score = 0
		}
	}
}

func (c *Coordinator) maybeQuarantineLocked(worker string, h *workerHealth) {
	if !c.quarantineEnabled() || h.quarantined || h.score < c.cfg.QuarantineThreshold {
		return
	}
	h.quarantined = true
	h.since = time.Now()
	h.trips++
	c.met.quarantineTrips.Inc()
	c.quarantinedGaugeLocked()
	c.log.Warnf("dist: worker %s quarantined (score %.2f ≥ %.2f): leases revoked, placement skipped, half-open probe in %s",
		worker, h.score, c.cfg.QuarantineThreshold, c.quarantineBackoffLocked(h))
}

// quarantineBackoffLocked is the half-open probe delay after h.trips
// consecutive trips: QuarantineBackoff × 2^(trips−1), capped at
// QuarantineBackoffMax.
func (c *Coordinator) quarantineBackoffLocked(h *workerHealth) time.Duration {
	d := c.cfg.QuarantineBackoff << uint(h.trips-1)
	if d <= 0 || d > c.cfg.QuarantineBackoffMax {
		d = c.cfg.QuarantineBackoffMax
	}
	return d
}

// maybeProbeQuarantined launches one half-open probe per quarantined worker
// whose backoff has elapsed. Called from the heartbeat monitors and the
// sweep event loop; the probing flag makes concurrent callers cheap no-ops.
func (c *Coordinator) maybeProbeQuarantined(ctx context.Context) {
	if !c.quarantineEnabled() {
		return
	}
	now := time.Now()
	c.mu.Lock()
	var due []string
	for w, h := range c.health {
		if h.quarantined && !h.probing && now.Sub(h.since) >= c.quarantineBackoffLocked(h) {
			h.probing = true
			due = append(due, w)
		}
	}
	c.mu.Unlock()
	for _, w := range due {
		go c.probeQuarantined(ctx, w)
	}
}

// probeQuarantined is the half-open transition: re-execute the known-answer
// battery on worker and compare bytes. A match closes the circuit
// (re-admission, score reset); anything else re-opens it with doubled
// backoff.
func (c *Coordinator) probeQuarantined(ctx context.Context, worker string) {
	c.met.quarantineProbes.Inc()
	ok := c.runProbe(ctx, worker)
	c.mu.Lock()
	h := c.healthLocked(worker)
	h.probing = false
	if ok {
		h.quarantined = false
		h.score = 0
		h.trips = 0
		c.met.quarantineReadmissions.Inc()
		c.quarantinedGaugeLocked()
		c.mu.Unlock()
		c.log.Infof("dist: worker %s passed its half-open probe; re-admitted", worker)
		return
	}
	h.since = time.Now()
	h.trips++
	next := c.quarantineBackoffLocked(h)
	c.mu.Unlock()
	c.log.Warnf("dist: worker %s failed its half-open probe; quarantine extended (next probe in %s)", worker, next)
}

// runProbe executes the known-answer battery on worker — every registered
// op over probeModel — and byte-compares each payload against the locally
// computed reference. Covering every op is what makes the probe a detector:
// a worker convicted of lying about one op may answer the others honestly,
// so any single-op probe would re-admit it.
func (c *Coordinator) runProbe(ctx context.Context, worker string) bool {
	lease := c.cfg.LeaseTTL
	if lease > 5*time.Second {
		lease = 5 * time.Second
	}
	for _, name := range registeredOps() {
		ref := probeReference(name)
		if ref.err != nil || !c.probeOp(ctx, worker, name, ref, lease) {
			return false
		}
	}
	return true
}

// probeOp runs one known-answer job of the battery on worker.
func (c *Coordinator) probeOp(ctx context.Context, worker, op string, ref *probeRef, lease time.Duration) bool {
	pctx, cancel := context.WithTimeout(ctx, lease)
	defer cancel()
	payload, _, err := c.exec(pctx, worker, ExecRequest{
		Op:      op,
		Model:   probeModel,
		From:    0,
		To:      ref.total,
		LeaseMs: lease.Milliseconds(),
	})
	return err == nil && bytes.Equal(payload, ref.payload)
}

// probeRef is one op's known-answer reference over probeModel.
type probeRef struct {
	once    sync.Once
	payload []byte
	total   int64
	err     error
}

var probeRefs sync.Map // op name -> *probeRef

// probeReference computes (once per op, process-wide, on the first probe
// that needs it) the reference bytes of op over probeModel. The probe model
// is fixed and ops are deterministic, so all coordinators share them.
func probeReference(name string) *probeRef {
	v, _ := probeRefs.LoadOrStore(name, &probeRef{})
	ref := v.(*probeRef)
	ref.once.Do(func() {
		op, ok := LookupOp(name)
		if !ok {
			ref.err = errUnknownOp(name)
			return
		}
		m, err := cli.ParseModel(probeModel)
		if err != nil {
			ref.err = err
			return
		}
		if ref.total, err = m.EnumerationSize(); err != nil {
			ref.err = err
			return
		}
		ref.payload, ref.err = op.Run(context.Background(), m, 0, ref.total)
	})
	return ref
}
