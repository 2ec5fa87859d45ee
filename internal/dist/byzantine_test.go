package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ksettop/internal/checkpoint"
)

// lieMode selects how a liarProxy mutates shard payloads.
type lieMode int

const (
	lieCount  lieMode = iota // re-encode a uvarint count as count+1
	lieTrunc                 // drop the payload's last byte
	lieRotate                // rotate the payload left by one byte
	lieReplay                // replay the previous shard's payload
)

// liarProxy wraps a worker's HTTP handler and — while lying is set —
// rewrites /dist/v1/exec responses with a wrong-but-well-formed payload,
// recomputing the CRC over the lie. This is exactly the adversary the CRC
// cannot catch: transport-clean bytes that are simply not the answer.
type liarProxy struct {
	inner  http.Handler
	mode   lieMode
	lying  atomic.Bool
	delay  time.Duration // optional: lose hedge races on purpose
	mu     sync.Mutex
	last   []byte // previous payload, for lieReplay
	lies   atomic.Int64
	honest atomic.Int64
}

func (p *liarProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/dist/v1/exec" || !p.lying.Load() {
		p.inner.ServeHTTP(w, r)
		return
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		return
	}
	var resp ExecResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	truth := resp.Payload
	switch p.mode {
	case lieCount:
		resp.Payload = lieCountOffByOne(truth)
	case lieTrunc:
		resp.Payload = lieEnumBytes(truth, true)
	case lieRotate:
		resp.Payload = lieEnumBytes(truth, false)
	case lieReplay:
		p.mu.Lock()
		if len(p.last) > 0 && !bytes.Equal(p.last, truth) {
			resp.Payload = append([]byte(nil), p.last...)
		}
		p.last = append(p.last[:0], truth...)
		p.mu.Unlock()
	}
	if bytes.Equal(resp.Payload, truth) {
		p.honest.Add(1) // nothing to lie about (first replay, empty shard)
	} else {
		p.lies.Add(1)
	}
	resp.CRC = crc32.ChecksumIEEE(resp.Payload)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}

// delayProxy adds fixed latency to every request of an honest worker.
type delayProxy struct {
	inner http.Handler
	d     time.Duration
}

func (p *delayProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/dist/v1/exec" {
		time.Sleep(p.d)
	}
	p.inner.ServeHTTP(w, r)
}

// startLiarFleet returns n worker addresses where worker 0 sits behind a
// liarProxy in the given mode, plus the proxy handle for honesty toggling.
// honestDelay > 0 slows the honest workers' exec path.
func startLiarFleet(t *testing.T, n int, mode lieMode, delay, honestDelay time.Duration) ([]string, *liarProxy) {
	t.Helper()
	wcfg := WorkerConfig{Logf: func(string, ...any) {}}
	proxy := &liarProxy{inner: NewWorker(wcfg).Handler(), mode: mode, delay: delay}
	proxy.lying.Store(true)
	addrs := make([]string, n)
	for i := range addrs {
		var h http.Handler = NewWorker(wcfg).Handler()
		if i == 0 {
			h = proxy
		} else if honestDelay > 0 {
			h = &delayProxy{inner: h, d: honestDelay}
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return addrs, proxy
}

// The acceptance scenario: a 3-worker fleet with one Byzantine liar, swept
// under every lie mode with full verification. The merged output must be
// byte-identical to the sequential engine, the liar must end up
// quarantined, and — once it turns honest — a half-open probe must
// re-admit it, with every transition visible in the stats.
func TestDistByzantineChaosMatrix(t *testing.T) {
	cases := []struct {
		name string
		mode lieMode
		job  Job
	}{
		{"count-off-by-one", lieCount, Job{Op: OpCount, Model: "star:n=4"}},
		{"enum-truncated", lieTrunc, Job{Op: OpEnum, Model: "star:n=4"}},
		{"enum-rotated", lieRotate, Job{Op: OpEnum, Model: "star:n=4"}},
		{"stale-replay", lieReplay, Job{Op: OpEnum, Model: "star:n=4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunSequential(context.Background(), tc.job)
			if err != nil {
				t.Fatal(err)
			}
			workers, proxy := startLiarFleet(t, 3, tc.mode, 0, 0)
			cfg := testCoordConfig(workers)
			cfg.VerifyFraction = 1
			cfg.MaxAttempts = 10
			cfg.QuarantineBackoff = 30 * time.Millisecond
			c := NewCoordinator(cfg)

			got, err := c.Run(context.Background(), tc.job)
			if err != nil {
				t.Fatalf("byzantine sweep failed: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("byzantine sweep differs from sequential reference")
			}
			if proxy.lies.Load() == 0 {
				t.Fatal("the liar never actually lied; test proves nothing")
			}
			st := c.Stats()
			if st.DivergenceEvents == 0 || st.QuarantineTrips == 0 {
				t.Fatalf("liar not convicted: stats %+v", st)
			}
			if st.QuarantinedWorkers != 1 {
				t.Fatalf("want exactly the liar quarantined, stats %+v", st)
			}

			// Redemption: the worker turns honest, and the half-open probe
			// (driven by the heartbeat monitors) re-admits it.
			proxy.lying.Store(false)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c.Start(ctx)
			waitFor(t, 5*time.Second, "liar re-admission", func() bool {
				return c.Stats().QuarantineReadmissions >= 1
			})
			if c.EligibleWorkers() != 3 {
				t.Fatalf("re-admitted fleet should be 3 eligible, got %d", c.EligibleWorkers())
			}
			if st := c.Stats(); st.QuarantinedWorkers != 0 || st.QuarantineProbes == 0 {
				t.Fatalf("re-admission not visible in stats: %+v", st)
			}
		})
	}
}

// The production lie points: with faultinject arming the worker's own
// Byzantine sites (process-global, so a single-worker fleet), every lie is
// overturned by the local arbiter, the worker is quarantined, and the sweep
// degrades to local compute — still byte-identical to sequential.
func TestDistLiePointsArbiterOverturns(t *testing.T) {
	cases := []struct {
		name string
		spec string
		job  Job
	}{
		{"lie-count", "error:dist.lie.count@1+1", Job{Op: OpCount, Model: "star:n=4"}},
		{"lie-enum", "error:dist.lie.enum@1+1", Job{Op: OpEnum, Model: "star:n=4"}},
		{"lie-replay", "error:dist.lie.replay@1+1", Job{Op: OpEnum, Model: "star:n=4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunSequential(context.Background(), tc.job)
			if err != nil {
				t.Fatal(err)
			}
			workers := startWorkers(t, 1, WorkerConfig{Logf: func(string, ...any) {}})
			cfg := testCoordConfig(workers)
			cfg.VerifyFraction = 1
			cfg.MaxAttempts = 10
			c := NewCoordinator(cfg)
			armFaults(t, 42, tc.spec)
			got, err := c.Run(context.Background(), tc.job)
			disarmFaults(t)
			if err != nil {
				t.Fatalf("sweep with lying worker failed: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("lying worker corrupted the merge")
			}
			st := c.Stats()
			if st.VerifyOverturned == 0 {
				t.Fatalf("%s: no commit was overturned — the lie point never fired? stats %+v", tc.name, st)
			}
			if st.QuarantineTrips != 1 || st.DegradedSweeps != 1 {
				t.Fatalf("%s: want the lone worker quarantined and the sweep degraded; stats %+v", tc.name, st)
			}
		})
	}
}

// The lies must be well-formed: still CRC-consistent (by construction) and
// still decodable, or the transport layer would catch them and the whole
// Byzantine tier would be untested.
func TestDistLiePayloadsWellFormed(t *testing.T) {
	var buf bytes.Buffer
	checkpoint.WriteUvarint(&buf, 41)
	lied := lieCountOffByOne(buf.Bytes())
	n, err := DecodeCount(lied)
	if err != nil {
		t.Fatalf("count lie is not a valid uvarint: %v", err)
	}
	if n != 42 {
		t.Fatalf("count lie: want 42, got %d", n)
	}

	enum := []byte{1, 2, 3, 4}
	if got := lieEnumBytes(enum, true); len(got) != 3 || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("truncate lie: got %v", got)
	}
	if got := lieEnumBytes(enum, false); !bytes.Equal(got, []byte{2, 3, 4, 1}) {
		t.Fatalf("rotate lie: got %v", got)
	}
}

// Satellite: a hedge loser that disagrees with the committed result is a
// recorded divergence event that forces verification and feeds the
// quarantine score — even with VerifyFraction 0.
func TestDistHedgeLoserMismatchConvicts(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// The liar answers in 45 ms — after the 30 ms hedge threshold, before
	// the honest hedge's 30 ms exec completes. Every liar-owned shard is
	// therefore hedged, commits the lie first, and then receives the honest
	// hedge loser's contradicting bytes as a late duplicate. Full
	// verification keeps the sweep loop open until every shard settles, so
	// each of those duplicates is observed, recorded as divergence, and the
	// committed lie overturned.
	workers, proxy := startLiarFleet(t, 3, lieRotate, 45*time.Millisecond, 30*time.Millisecond)
	cfg := testCoordConfig(workers)
	cfg.DisableHedging = false
	cfg.LeaseTTL = 400 * time.Millisecond // event-loop tick = TTL/20 = 20ms
	cfg.HedgeMin = 30 * time.Millisecond
	cfg.HedgeQuantile = 0.01 // pin the threshold to the fastest sample…
	cfg.HedgeFactor = 1      // …so slow-but-honest samples can't outgrow the liar
	cfg.MaxAttempts = 20
	cfg.VerifyFraction = 1
	c := NewCoordinator(cfg)
	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("hedged sweep with lying straggler failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged sweep differs from sequential reference")
	}
	if proxy.lies.Load() == 0 {
		t.Fatal("the liar never actually lied; test proves nothing")
	}
	st := c.Stats()
	if st.Hedges == 0 {
		t.Fatalf("the lying straggler was never hedged: %+v", st)
	}
	if st.CrossCheckMismatches == 0 || st.DivergenceEvents == 0 {
		t.Fatalf("hedge-loser lies were not recorded as divergence: %+v", st)
	}
	if st.VerifyOverturned == 0 {
		t.Fatalf("committed lies must be overturned before the merge: %+v", st)
	}
}

// Honest fleet under full verification: every shard is confirmed, nothing
// diverges, nothing is overturned, nobody is quarantined — verification is
// pure overhead, not false positives.
func TestDistVerifyCleanOnHonestFleet(t *testing.T) {
	job := Job{Op: OpEnum, Model: "star:n=4"}
	want, err := RunSequential(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 3, WorkerConfig{Logf: func(string, ...any) {}})
	cfg := testCoordConfig(workers)
	cfg.VerifyFraction = 1
	c := NewCoordinator(cfg)
	got, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("verified sweep differs from sequential reference")
	}
	st := c.Stats()
	if st.VerifySelected != uint64(cfg.Shards) {
		t.Fatalf("VerifyFraction 1 must select every shard: %+v", st)
	}
	if st.VerifyOK != uint64(cfg.Shards) {
		t.Fatalf("every shard should settle by agreement: %+v", st)
	}
	if st.VerifyMismatches != 0 || st.DivergenceEvents != 0 || st.VerifyOverturned != 0 || st.QuarantineTrips != 0 {
		t.Fatalf("honest fleet produced Byzantine evidence: %+v", st)
	}
}
