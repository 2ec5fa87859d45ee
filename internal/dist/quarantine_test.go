package dist

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/faultinject"
)

// forceQuarantine opens worker's circuit directly, as if its divergence
// score had just tripped; since=now so no half-open probe is due yet.
func forceQuarantine(c *Coordinator, worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	h.quarantined = true
	h.since = time.Now()
	h.trips = 1
	c.quarantinedGaugeLocked()
}

// Unit test of the hedge-loser promotion path: a disagreeing duplicate on a
// committed shard is a divergence event that forces verification even with
// VerifyFraction 0, and the loser is charged when the shard settles.
func TestDistDuplicateMismatchForcesVerification(t *testing.T) {
	c := NewCoordinator(testCoordConfig([]string{"w1:0", "w2:0", "w3:0"}))
	v := c.newVerifier(Job{Op: OpEnum, Model: "star:n=4"}, Op{}, nil, nil)
	truth, lie := []byte{1, 2, 3}, []byte{3, 2, 1}
	st := &shardState{
		idx: 3, committed: true, committedBy: "w1:0", result: truth,
		votes:       map[string][]byte{"w1:0": truth},
		verifyTried: map[string]bool{},
	}

	// The hedge loser disagrees: recorded, and the shard flips to needVerify.
	if err := v.onDuplicate(st, completion{g: &grant{worker: "w2:0"}, payload: lie}); err != nil {
		t.Fatal(err)
	}
	if !st.needVerify || v.pending != 1 {
		t.Fatalf("mismatching duplicate must force verification: %+v", st)
	}
	if s := c.Stats(); s.CrossCheckMismatches != 1 || s.DivergenceEvents != 1 || s.VerifySelected != 1 {
		t.Fatalf("mismatch not recorded: %+v", s)
	}

	// A second, agreeing duplicate is a free confirming vote: the shard
	// settles on the committed bytes and the loser is charged.
	if err := v.onDuplicate(st, completion{g: &grant{worker: "w3:0"}, payload: truth}); err != nil {
		t.Fatal(err)
	}
	if !st.verified || v.pending != 0 || !bytes.Equal(st.result, truth) {
		t.Fatalf("agreeing duplicate must settle the shard: %+v", st)
	}
	c.mu.Lock()
	score := c.healthLocked("w2:0").score
	c.mu.Unlock()
	if score != divergenceScore {
		t.Fatalf("hedge loser not charged with divergence: score %v", score)
	}
}

// pickWorker must never resolve to a quarantined worker, no matter the
// attempt number — attempts are not burned spinning on a poisoned replica
// sequence — and must report exhaustion once everyone is quarantined.
func TestPickWorkerQuarantineExhaustion(t *testing.T) {
	workers := []string{"w1:0", "w2:0", "w3:0"}
	c := NewCoordinator(testCoordConfig(workers))
	forceQuarantine(c, "w1:0")
	forceQuarantine(c, "w3:0")
	for attempt := 0; attempt < 12; attempt++ {
		w, ok := c.pickWorker("shard-key-7", attempt)
		if !ok {
			t.Fatalf("attempt %d: one eligible worker left, pick must succeed", attempt)
		}
		if w != "w2:0" {
			t.Fatalf("attempt %d: picked quarantined worker %s", attempt, w)
		}
	}
	forceQuarantine(c, "w2:0")
	if w, ok := c.pickWorker("shard-key-7", 0); ok {
		t.Fatalf("all workers quarantined, yet picked %s", w)
	}
}

// With the whole fleet quarantined a sweep must not spin MaxAttempts
// against poisoned workers: it degrades to local compute immediately,
// granting zero leases, and still returns reference bytes.
func TestDistAllQuarantinedDegradesWithoutLeases(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses are never dialed: no servers behind them.
	workers := []string{"127.0.0.1:1", "127.0.0.1:2"}
	c := NewCoordinator(testCoordConfig(workers))
	forceQuarantine(c, workers[0])
	forceQuarantine(c, workers[1])
	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded sweep differs from sequential reference")
	}
	st := c.Stats()
	if st.LeasesGranted != 0 {
		t.Fatalf("no lease may reach a quarantined worker: %+v", st)
	}
	if st.DegradedSweeps != 1 {
		t.Fatalf("want exactly one degraded sweep: %+v", st)
	}
	// CountClosure must likewise decline (local engine serves) rather than
	// trust the poisoned fleet.
	m, err := cli.ParseModel("star:n=6")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.CountClosure(context.Background(), m); ok || err != nil {
		t.Fatalf("CountClosure on a quarantined fleet must decline: ok=%v err=%v", ok, err)
	}
}

// The half-open probe is itself Byzantine-checked: a worker that lies on
// the known-answer probe stays quarantined with doubled backoff; once it
// answers honestly it is re-admitted and its score reset.
func TestDistQuarantineProbeLiesExtendReadmitsWhenHonest(t *testing.T) {
	workers := startWorkers(t, 1, WorkerConfig{Logf: func(string, ...any) {}})
	cfg := testCoordConfig(workers)
	cfg.QuarantineBackoff = 20 * time.Millisecond
	c := NewCoordinator(cfg)
	forceQuarantine(c, workers[0])
	backdate := func() {
		c.mu.Lock()
		c.health[workers[0]].since = time.Now().Add(-time.Minute)
		c.mu.Unlock()
	}

	// Probe while the worker still lies (the production lie point corrupts
	// the count payload before the CRC): quarantine must be extended.
	armFaults(t, 42, "error:dist.lie.count@1+1")
	backdate()
	c.maybeProbeQuarantined(context.Background())
	waitFor(t, 5*time.Second, "failed probe to finish", func() bool {
		return c.Stats().QuarantineProbes == 1
	})
	c.mu.Lock()
	trips, stillQuarantined := c.health[workers[0]].trips, c.health[workers[0]].quarantined
	c.mu.Unlock()
	if !stillQuarantined || trips != 2 {
		t.Fatalf("lying probe must extend quarantine: trips=%d quarantined=%v", trips, stillQuarantined)
	}
	if c.Stats().QuarantineReadmissions != 0 {
		t.Fatal("lying worker was re-admitted")
	}

	// Honest again: the next due probe closes the circuit.
	disarmFaults(t)
	backdate()
	c.maybeProbeQuarantined(context.Background())
	waitFor(t, 5*time.Second, "re-admission", func() bool {
		return c.Stats().QuarantineReadmissions == 1
	})
	if c.EligibleWorkers() != 1 || c.Stats().QuarantinedWorkers != 0 {
		t.Fatalf("worker not restored to placement: %+v", c.Stats())
	}
	c.mu.Lock()
	score := c.health[workers[0]].score
	c.mu.Unlock()
	if score != 0 {
		t.Fatalf("re-admission must reset the score, got %v", score)
	}
}

// The half-open probe must exercise every op, not just one: a worker that
// lies only about enum payloads answers a count job honestly, so an
// op-blind count probe re-admits it. Arming dist.lie.enum on even hits
// makes the lie a byte rotation, which leaves a one-byte count payload
// intact. The battery runs its jobs in op-name order, so the count job is
// hit 1 (honest) and the enum job hit 2 (rotated): the probe must fail and
// the worker must stay quarantined.
func TestDistQuarantineProbeCatchesEnumLiar(t *testing.T) {
	workers := startWorkers(t, 1, WorkerConfig{Logf: func(string, ...any) {}})
	c := NewCoordinator(testCoordConfig(workers))
	forceQuarantine(c, workers[0])
	c.mu.Lock()
	c.health[workers[0]].since = time.Now().Add(-time.Minute)
	c.mu.Unlock()

	armFaults(t, 42, "error:dist.lie.enum@2+2")
	c.maybeProbeQuarantined(context.Background())
	waitFor(t, 5*time.Second, "probe to finish", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !c.health[workers[0]].probing
	})
	c.mu.Lock()
	trips, stillQuarantined := c.health[workers[0]].trips, c.health[workers[0]].quarantined
	c.mu.Unlock()
	if !stillQuarantined || trips != 2 {
		t.Fatalf("enum liar must fail its probe: trips=%d quarantined=%v", trips, stillQuarantined)
	}
	if c.Stats().QuarantineReadmissions != 0 {
		t.Fatal("enum liar was re-admitted")
	}
	if hits := faultinject.Hits(faultinject.PointDistLieEnum); hits != 2 {
		t.Fatalf("probe battery ran %d jobs on the worker, want one per op (2)", hits)
	}
}

// Satellite: heartbeat probe intervals carry seeded ±20%% jitter —
// deterministic in (seed, worker, tick), always within [0.8, 1.2)× the
// configured period, and actually varying across ticks.
func TestProbeIntervalJitter(t *testing.T) {
	cfg := testCoordConfig([]string{"w1:0", "w2:0"})
	cfg.HeartbeatEvery = 100 * time.Millisecond
	c := NewCoordinator(cfg)
	lo, hi := 80*time.Millisecond, 120*time.Millisecond
	wh := ringHash("w1:0")
	distinct := map[time.Duration]bool{}
	for tick := uint64(0); tick < 1000; tick++ {
		d := c.probeInterval(wh, tick)
		if d < lo || d >= hi {
			t.Fatalf("tick %d: interval %v outside [%v, %v)", tick, d, lo, hi)
		}
		if d != c.probeInterval(wh, tick) {
			t.Fatalf("tick %d: jitter is not deterministic", tick)
		}
		distinct[d] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("jitter barely varies: %d distinct intervals in 1000 ticks", len(distinct))
	}
	if c.probeInterval(ringHash("w2:0"), 0) == c.probeInterval(wh, 0) {
		t.Log("workers share tick-0 jitter (possible but unlikely); check decorrelation")
	}
}
