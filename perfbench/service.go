package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/dist"
	"ksettop/internal/obs"
	"ksettop/internal/serve"
)

const (
	// openRate is the open-loop arrival rate (requests per second, Poisson).
	// It sits well below the closed-loop capacity (about 1200 rps on one
	// connection, 2300 on two, on a 2-core machine): at 200 rps queueing made
	// every tail percentile swing by 75% with the machine's own speed.
	openRate = 100
	// closedConns is the number of connections of the closed loop that
	// measures ops_per_s. At nproc connections the client and the server
	// keep every core busy, so the figure tracks the host's other load: on
	// 2 cores one spinning process took 28% off it, and ten runs on a shared
	// host spread by 0.26–0.30 of their median. One connection keeps about
	// one core busy; the same spinning process moved it by under 3%. The
	// traced run still reports the capacity at nproc connections
	// (serve.capacity_nproc_rps).
	closedConns = 1
	// closedLen and openLen size the two parts of the stream. A closed phase
	// that exhausts its part ends early; capacity is counted over the whole
	// windows it ran. openLen covers 45 s of open-loop segments.
	closedLen = 60000
	openLen   = openRate * 45
)

// boundsService is the online query workload: a serve.Server on a loopback
// listener, fed the seeded request stream by a closed loop on closedConns
// connections and an open loop over nproc connections.
type boundsService struct {
	hot          *hotSet
	closed, open []request
	arrivals     []time.Duration // open-loop due offsets from the phase start
	srv          *serve.Server
	hs           *http.Server
	served       chan error
	url          string
	tr           *http.Transport
	client       *http.Client
	conns        int
	ans          *answers
}

func (b *boundsService) setup(seed int64) error {
	b.conns = runtime.NumCPU()
	hot, err := newHotSet()
	if err != nil {
		return err
	}
	b.hot = hot
	all := genStream(seed, hot, closedLen+openLen)
	b.closed, b.open = all[:closedLen], all[closedLen:]
	b.arrivals = poissonArrivals(seed, openRate, len(b.open))

	b.srv = serve.New(serve.Config{Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()
	b.tr = &http.Transport{MaxIdleConnsPerHost: b.conns, MaxConnsPerHost: b.conns, DisableCompression: true}
	b.client = &http.Client{Transport: b.tr}
	b.ans = newAnswers()

	// Warm-up: every hot request once, so the timed phases see the caches
	// in steady state. The knownDefects requests pay their cold S² build
	// here.
	for _, set := range [][]request{hot.bounds, hot.count, hot.small} {
		for _, r := range set {
			if _, err := b.post(context.Background(), r); err != nil {
				return fmt.Errorf("warm-up %s: %w", r.Key, err)
			}
		}
	}
	return nil
}

func (b *boundsService) close() {
	if b.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.hs.Shutdown(ctx)
		<-b.served
		b.tr.CloseIdleConnections()
	}
}

// poissonArrivals returns n due offsets of a Poisson process at rate per
// second, drawn from its own seeded source so that the schedule does not
// depend on how the stream was drawn.
func poissonArrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_a771))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// post sends one request and records its answer. ctx may carry a trace
// span; the server's serve.request span then parents into it.
func (b *boundsService) post(ctx context.Context, r request) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+r.Path, strings.NewReader(r.Body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if h := obs.TraceHeader(ctx); h != "" {
		req.Header.Set(obs.TraceHeaderName, h)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	b.ans.record(r, resp.StatusCode, body)
	return resp.StatusCode, nil
}

// closedWindow is the width of the windows the closed loop counts
// completions in.
const closedWindow = 250 * time.Millisecond

// closedLoop runs conns clients, each sending its next request when the
// previous one returns, for d or until the stream part is used up. It
// returns the requests completed per second in each whole window of the
// phase, and the counts sent and failed.
func (b *boundsService) closedLoop(stream []request, conns int, d time.Duration) (rates []float64, sent int64, failed int64) {
	var next, fails atomic.Int64
	done := make([]atomic.Int64, d/closedWindow+1)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(stream)) {
					return
				}
				if st, err := b.post(context.Background(), stream[i]); err != nil || st != http.StatusOK {
					fails.Add(1)
				}
				if w := int(time.Since(start) / closedWindow); w < len(done) {
					done[w].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	sent = min(next.Load(), int64(len(stream)))
	rates = make([]float64, int(min(time.Since(start), d)/closedWindow))
	for w := range rates {
		rates[w] = float64(done[w].Load()) / closedWindow.Seconds()
	}
	return rates, sent, fails.Load()
}

// openResult is one open-loop request: its latency from the due time, how
// late the generator dispatched it, and whether it succeeded.
type openResult struct {
	latency, late time.Duration
	ok            bool
	span          *obs.Span
}

// openLoop sends stream[i] at start+due[i] for every due time within d. A
// dispatcher hands each due request to one of conns client connections;
// when all are busy the request waits, and that wait counts in its latency
// because latency runs from the due time, not from the send.
func openLoop(due []time.Duration, d time.Duration, conns int,
	send func(ctx context.Context, i int) bool) []openResult {
	n := 0
	for n < len(due) && due[n] < d {
		n++
	}
	res := make([]openResult, n)
	work := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ctx, span := obs.StartSpan(context.Background(), "loadgen.request")
				ok := send(ctx, i)
				span.End()
				res[i].ok = ok
				res[i].span = span
				res[i].latency = time.Since(start.Add(due[i]))
			}
		}()
	}
	for i := 0; i < n; i++ {
		at := start.Add(due[i])
		time.Sleep(time.Until(at))
		res[i].late = max(time.Since(at), 0)
		work <- i
	}
	close(work)
	wg.Wait()
	return res
}

// latencies returns the open-loop latencies in ms; a failed request counts
// as missing every latency limit and is reported as the phase length.
func latencies(res []openResult, d time.Duration) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = ms(r.latency)
		if !r.ok {
			out[i] = ms(d)
		}
	}
	return out
}

// openPhase runs the open loop over the arrivals due in [from, from+d) of
// the open-loop schedule, shifted to start now.
func (b *boundsService) openPhase(from, d time.Duration) []openResult {
	lo := sort.Search(len(b.arrivals), func(i int) bool { return b.arrivals[i] >= from })
	hi := sort.Search(len(b.arrivals), func(i int) bool { return b.arrivals[i] >= from+d })
	due := make([]time.Duration, hi-lo)
	for i := range due {
		due[i] = b.arrivals[lo+i] - from
	}
	return openLoop(due, d, b.conns, func(ctx context.Context, i int) bool {
		st, err := b.post(ctx, b.open[lo+i])
		return err == nil && st == http.StatusOK
	})
}

// cycle is the length of one closed segment and the open segment after it.
const cycle = 2 * time.Second

func (b *boundsService) measure(d time.Duration) (*outcome, error) {
	// The run alternates closed and open segments of cycle/2 each, so that
	// both phases sample the whole run and a burst of the host's other load
	// falls on both alike. Capacity is the mean of the middle half of the
	// closed segments' windows; the open segments together send about 50
	// requests a second of the run.
	n := max(int(d/cycle), 1)
	seg := d / time.Duration(2*n)
	var rates []float64
	var res []openResult
	var sent, cfail int64
	for c := 0; c < n; c++ {
		r, s, f := b.closedLoop(b.closed[sent:], closedConns, seg)
		rates = append(rates, r...)
		sent, cfail = sent+s, cfail+f
		res = append(res, b.openPhase(time.Duration(c)*seg, seg)...)
	}
	out := b.finish(sent, cfail, res)
	out.metrics["ops_per_s"] = iqm(rates)
	out.metrics["p50_ms"] = median(latencies(res, d/2))
	return out, nil
}

// finish counts the open-loop failures and checks every answer received.
func (b *boundsService) finish(sent, failed int64, res []openResult) *outcome {
	out := &outcome{attempted: sent + int64(len(res)), failed: failed, metrics: map[string]float64{}}
	for _, r := range res {
		if !r.ok {
			out.failed++
		}
	}
	out.wrong = b.ans.check(b.hot)
	return out
}

func (b *boundsService) traced(d time.Duration) (*outcome, error) {
	var log spanLog
	var sent, failed int64
	closed := func(conns int, d time.Duration) []float64 {
		rates, s, f := b.closedLoop(b.closed[sent:], conns, d)
		sent, failed = sent+s, failed+f
		return rates
	}
	plain := closed(closedConns, d/6)
	log.startTracing()
	withSpans := closed(closedConns, d/6)
	log.stopTracing()
	stats0 := b.srv.Stats()
	capacity := closed(b.conns, d/6)
	stats1 := b.srv.Stats()

	memo := counterDelta(obs.DefaultRegistry())
	log.startTracing()
	res := b.openPhase(0, d/2)
	spans := log.stopTracing()
	md := memo()

	out := b.finish(sent, failed, res)
	m := out.metrics
	m["obs.trace_overhead_share"] = share(iqm(plain), iqm(withSpans)) - 1
	m["serve.capacity_nproc_rps"] = iqm(capacity)
	m["serve.shared_share"] = share(float64(stats1.Shared-stats0.Shared), float64(stats1.Requests-stats0.Requests))
	m["serve.fail_share"] = share(float64(out.failed), float64(out.attempted))
	m["memo.hit_ratio"] = share(md["kset_memo_hits_total"], md["kset_memo_hits_total"]+md["kset_memo_misses_total"])
	m["memo.evictions"] = md["kset_memo_evictions_total"]

	late := make([]float64, len(res))
	for i, r := range res {
		late[i] = ms(r.late)
	}
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	m["op.p95_ms"] = quantile(latencies(res, d/2), 0.95)
	server := map[uint64]int64{} // trace ID → server span duration
	for _, s := range spans {
		if s.Name == "serve.request" {
			server[s.TraceID] = s.DurNs
		}
	}
	var srv, queue []float64
	for _, r := range res {
		if dur, ok := server[r.span.TraceID()]; ok {
			srv = append(srv, float64(dur)/1e6)
			queue = append(queue, ms(r.latency)-float64(dur)/1e6)
		}
	}
	m["serve.server_p99_ms"] = quantile(srv, 0.99)
	m["serve.queue_p99_ms"] = quantile(queue, 0.99)

	// Replay the open-loop requests straight into the layers the server
	// calls, timing each layer from outside.
	var parse, analyze, multi, count []float64
	for _, r := range b.open[:len(res)] {
		spec, rounds, ok := r.model()
		if !ok {
			continue
		}
		t := time.Now()
		mod, err := cli.ParseModel(spec)
		parse = append(parse, ms(time.Since(t)))
		if err != nil {
			continue
		}
		switch r.Path {
		case "/v1/bounds":
			t = time.Now()
			core.Analyze(mod, rounds) // its answers were checked against the server's
			analyze = append(analyze, ms(time.Since(t)))
			t = time.Now()
			for k := 1; k <= rounds; k++ {
				if _, err := core.UpperBoundsMultiRound(mod, k); err != nil {
					break
				}
				if _, err := core.LowerBoundsMultiRound(mod, k); err != nil {
					break
				}
			}
			multi = append(multi, ms(time.Since(t)))
		case "/v1/count":
			t = time.Now()
			if _, err := mod.GraphCountCtx(context.Background()); err != nil {
				out.wrong = append(out.wrong, fmt.Sprintf("replay count %s: %v", spec, err))
			}
			count = append(count, ms(time.Since(t)))
		}
	}
	m["model.parse_build_ms"] = mean(parse)
	m["core.analyze_ms"] = mean(analyze)
	m["core.multiround_ms"] = mean(multi)
	m["model.count_ms"] = mean(count)
	if log.dropped > 0 {
		return nil, fmt.Errorf("span ring overflowed (%v spans dropped)", log.dropped)
	}
	return out, nil
}

// answers records, per request key, every status seen and the first
// successful body, so the checks can run after the timed phases.
type answers struct {
	mu   sync.Mutex
	seen map[string]*keyLog
}

type keyLog struct {
	req      request
	statuses map[int]int
	hashes   map[uint64]bool // hashes of 200 bodies
	first    []byte          // the first 200 body
}

func newAnswers() *answers { return &answers{seen: map[string]*keyLog{}} }

func (a *answers) record(r request, status int, body []byte) {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	a.mu.Lock()
	defer a.mu.Unlock()
	k := a.seen[r.Key]
	if k == nil {
		k = &keyLog{req: r, statuses: map[int]int{}, hashes: map[uint64]bool{}}
		a.seen[r.Key] = k
	}
	k.statuses[status]++
	if status == http.StatusOK {
		k.hashes[sum] = true
		if k.first == nil {
			k.first = body
		}
	}
}

// check verifies every distinct key: all successful answers to one key are
// byte-identical, each is right, and each refusal is one the library makes
// too (or a load refusal, 503/504, which is a failure but not a wrong answer).
func (a *answers) check(hot *hotSet) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.seen))
	for key := range a.seen {
		keys = append(keys, key)
	}
	// The checks recompute every distinct answer; spread them over the
	// cores, as the timed phases are over.
	workers := runtime.NumCPU()
	found := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				found[w] = append(found[w], a.checkKey(keys[i], hot)...)
			}
		}()
	}
	wg.Wait()
	var wrong []string
	for _, f := range found {
		wrong = append(wrong, f...)
	}
	return wrong
}

// checkKey checks the answers to one key; a.mu is held by check.
func (a *answers) checkKey(key string, hot *hotSet) []string {
	var wrong []string
	k := a.seen[key]
	if len(k.hashes) > 1 {
		wrong = append(wrong, fmt.Sprintf("%s: %d different answers", key, len(k.hashes)))
	}
	if k.first != nil {
		if err := checkAnswer(k.req, k.first, hot.expect); err != nil {
			wrong = append(wrong, fmt.Sprintf("%s: %v", key, err))
		}
	}
	for st := range k.statuses {
		if st == http.StatusOK || st == http.StatusServiceUnavailable || st == http.StatusGatewayTimeout {
			continue
		}
		if err := expectRefusal(k.req); err != nil {
			wrong = append(wrong, fmt.Sprintf("%s: status %d: %v", key, st, err))
		}
	}
	return wrong
}

// model returns the model spec of a request and, for /v1/bounds, its rounds.
func (r request) model() (spec string, rounds int, ok bool) {
	var body struct {
		Model  string `json:"model"`
		Rounds int    `json:"rounds"`
	}
	if err := json.Unmarshal([]byte(r.Body), &body); err != nil {
		return "", 0, false
	}
	return body.Model, body.Rounds, true
}

// expectRefusal returns nil when the library itself refuses the request, so
// an error status is the right answer (the known cycle:n=6 case), and an
// error when the library answers it.
func expectRefusal(r request) error {
	spec, rounds, ok := r.model()
	if !ok {
		return errors.New("undecodable request")
	}
	m, err := cli.ParseModel(spec)
	if err != nil {
		return nil
	}
	if r.Path == "/v1/bounds" {
		if _, err := core.Analyze(m, rounds); err != nil {
			return nil
		}
	}
	return errors.New("refused, but the library answers it")
}

// checkAnswer checks one successful response against a direct computation.
func checkAnswer(r request, body []byte, expect map[string]bool) error {
	switch r.Path {
	case "/v1/bounds":
		var req serve.BoundsRequest
		var resp serve.BoundsResponse
		if err := decodeBoth(r.Body, &req, body, &resp); err != nil {
			return err
		}
		return checkBounds(req, resp)
	case "/v1/count":
		var req serve.CountRequest
		var resp serve.CountResponse
		if err := decodeBoth(r.Body, &req, body, &resp); err != nil {
			return err
		}
		return checkCount(req.Model, resp.Count)
	case "/v1/solve":
		var resp serve.SolveResponse
		if err := decodeStrict(string(body), &resp); err != nil {
			return err
		}
		want, ok := expect[r.Key]
		if !ok {
			return errors.New("no expected verdict")
		}
		if resp.Solvable != want {
			return fmt.Errorf("solvable = %v, the bound sandwich says %v", resp.Solvable, want)
		}
		return nil
	case "/v1/betti":
		var req serve.BettiRequest
		var resp serve.BettiResponse
		if err := decodeBoth(r.Body, &req, body, &resp); err != nil {
			return err
		}
		m, err := cli.ParseModel(req.Model)
		if err != nil {
			return err
		}
		pc, err := core.ProtocolComplexOneRound(m, req.Values)
		if err != nil {
			return err
		}
		ac, _, err := pc.ToAbstract()
		if err != nil {
			return err
		}
		return checkEuler(ac, resp.Betti)
	}
	return fmt.Errorf("unknown path %s", r.Path)
}

// checkBounds compares a /v1/bounds answer with core.Analyze.
func checkBounds(req serve.BoundsRequest, resp serve.BoundsResponse) error {
	m, err := cli.ParseModel(req.Model)
	if err != nil {
		return err
	}
	a, err := core.Analyze(m, req.Rounds)
	if err != nil {
		return fmt.Errorf("answered, but core.Analyze fails: %v", err)
	}
	if resp.N != m.N() || len(resp.Best) != len(a.Best) {
		return fmt.Errorf("n=%d with %d rows, want n=%d with %d", resp.N, len(resp.Best), m.N(), len(a.Best))
	}
	for i, b := range a.Best {
		got := resp.Best[i]
		want := serve.BoundRow{Rounds: b.Rounds, UpperK: b.Upper.K, UpperTheorem: b.Upper.Theorem,
			LowerK: b.Lower.K, LowerTheorem: b.Lower.Theorem, Tight: b.Tight}
		if got != want {
			return fmt.Errorf("round %d: got %+v, want %+v", i+1, got, want)
		}
		if got.LowerK > got.UpperK {
			return fmt.Errorf("round %d: lower_k %d > upper_k %d", i+1, got.LowerK, got.UpperK)
		}
	}
	return nil
}

// checkCount compares a closure count with the closed-form count, or with
// dist.RunSequential where the model has more generators (> 22) than the
// closed form takes.
func checkCount(spec string, got int64) error {
	m, err := cli.ParseModel(spec)
	if err != nil {
		return err
	}
	var want int64
	if m.GeneratorCount() <= 22 {
		want, err = m.GraphCountClosedForm()
	} else {
		var payload []byte
		payload, err = dist.RunSequential(context.Background(), dist.Job{Op: dist.OpCount, Model: spec})
		if err == nil {
			want, err = dist.DecodeCount(payload)
		}
	}
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("count %d, reference count %d", got, want)
	}
	return nil
}

func decodeBoth(reqBody string, req any, respBody []byte, resp any) error {
	if err := decodeStrict(reqBody, req); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if err := decodeStrict(string(respBody), resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	return nil
}

// decodeStrict decodes a JSON body, rejecting fields the type lacks.
func decodeStrict(s string, v any) error {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
