package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"ksettop/internal/dist"
)

// fleetRandomModels is how many random n = 5 models a job list draws, and
// fleetRandomEdges the edge count of each of their two generators: their
// closure rank spaces (at most 240 × 2^10 ranks) fit the default
// enumeration budget.
const (
	fleetRandomModels = 6
	fleetRandomEdges  = 10
)

// genJobs builds the seed's job list: a count and an enum sweep over every
// n = 5 family model (nonsplit left out, see familyModels) and over
// fleetRandomModels random n = 5 models (see randomModel; every other one
// closed under permutation), in a seeded order.
func genJobs(seed int64) ([]dist.Job, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := familyModels(5, 5)
	for i := 0; i < fleetRandomModels; i++ {
		spec, err := randomModel(rng, 5, fleetRandomEdges, i%2 == 0)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	var jobs []dist.Job
	for _, s := range specs {
		jobs = append(jobs, dist.Job{Op: dist.OpCount, Model: s}, dist.Job{Op: dist.OpEnum, Model: s})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// fleetSweep is the distributed-sweep workload: a dist.Coordinator with
// production defaults over nproc in-process workers on loopback listeners.
type fleetSweep struct {
	jobs    []dist.Job
	first   [][]byte // each job's first fleet answer
	servers []*http.Server
	served  chan error
	coord   *dist.Coordinator
	stop    context.CancelFunc
}

func (f *fleetSweep) setup(seed int64) error {
	jobs, err := genJobs(seed)
	if err != nil {
		return err
	}
	f.jobs = jobs
	f.first = make([][]byte, len(jobs))
	n := runtime.NumCPU()
	f.served = make(chan error, n)
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w := dist.NewWorker(dist.WorkerConfig{Logf: func(string, ...any) {}})
		hs := &http.Server{Handler: w.Handler()}
		f.servers = append(f.servers, hs)
		go func() { f.served <- hs.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
	}
	f.coord = dist.NewCoordinator(dist.CoordConfig{Workers: addrs, Logf: func(string, ...any) {}})
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	f.coord.Start(ctx)
	// Warm-up: every job once.
	for i := range f.jobs {
		if _, _, err := f.sweep(i); err != nil {
			return fmt.Errorf("warm-up %s %s: %w", f.jobs[i].Op, f.jobs[i].Model, err)
		}
	}
	return nil
}

func (f *fleetSweep) close() {
	if f.stop != nil {
		f.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		hs.Shutdown(ctx)
		<-f.served
	}
}

// sweep runs job i on the fleet and keeps its first answer.
func (f *fleetSweep) sweep(i int) ([]byte, time.Duration, error) {
	start := time.Now()
	out, err := f.coord.Run(context.Background(), f.jobs[i])
	d := time.Since(start)
	if err == nil && f.first[i] == nil {
		f.first[i] = out
	}
	return out, d, err
}

// sweepLog is a stretch of sweeps over the job list.
type sweepLog struct {
	perJob      [][]float64 // ms, per job index
	count, enum []float64   // ms, per op
	all         []float64
	total       time.Duration
	failed      int64
	bytes       int64
}

// loop runs the job list in order, cyclically, until d has elapsed and every
// job has run at least once.
func (f *fleetSweep) loop(d time.Duration, wrong *[]string) *sweepLog {
	l := &sweepLog{perJob: make([][]float64, len(f.jobs))}
	deadline := time.Now().Add(d)
	for i := 0; i < len(f.jobs) || time.Now().Before(deadline); i++ {
		j := i % len(f.jobs)
		out, dur, err := f.sweep(j)
		if err != nil {
			l.failed++
			continue
		}
		if !bytes.Equal(out, f.first[j]) {
			*wrong = append(*wrong, fmt.Sprintf("%s %s: answer differs between sweeps", f.jobs[j].Op, f.jobs[j].Model))
		}
		t := ms(dur)
		l.perJob[j] = append(l.perJob[j], t)
		l.all = append(l.all, t)
		l.total += dur
		l.bytes += int64(len(out))
		if f.jobs[j].Op == dist.OpCount {
			l.count = append(l.count, t)
		} else {
			l.enum = append(l.enum, t)
		}
	}
	return l
}

// check compares each job's fleet answer with dist.RunSequential, and each
// count with the closed-form count (see checkCount). It returns the
// sequential time per job.
func (f *fleetSweep) check(wrong *[]string) []time.Duration {
	local := make([]time.Duration, len(f.jobs))
	for j, job := range f.jobs {
		start := time.Now()
		want, err := dist.RunSequential(context.Background(), job)
		local[j] = time.Since(start)
		if err != nil {
			*wrong = append(*wrong, fmt.Sprintf("%s %s: sequential reference: %v", job.Op, job.Model, err))
			continue
		}
		if f.first[j] != nil && !bytes.Equal(f.first[j], want) {
			*wrong = append(*wrong, fmt.Sprintf("%s %s: fleet answer differs from dist.RunSequential", job.Op, job.Model))
		}
		if job.Op == dist.OpCount && f.first[j] != nil {
			if err := checkFleetCount(job.Model, f.first[j]); err != nil {
				*wrong = append(*wrong, fmt.Sprintf("count %s: %v", job.Model, err))
			}
		}
	}
	return local
}

// checkFleetCount compares a count payload with the reference count.
func checkFleetCount(spec string, payload []byte) error {
	got, err := dist.DecodeCount(payload)
	if err != nil {
		return err
	}
	return checkCount(spec, got)
}

func (f *fleetSweep) measure(d time.Duration) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	l := f.loop(d, &out.wrong)
	f.check(&out.wrong)
	out.attempted = int64(len(l.all)) + l.failed
	out.failed = l.failed
	out.metrics["ops_per_s"] = float64(len(l.all)) / l.total.Seconds()
	out.metrics["p50_ms"] = median(l.all)
	return out, nil
}

// jobMedians sums, over jobs, each job's median sweep time.
func jobMedians(l *sweepLog) float64 {
	t := 0.0
	for _, xs := range l.perJob {
		t += median(xs)
	}
	return t
}

func (f *fleetSweep) traced(d time.Duration) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	stats0 := f.coord.Stats()
	plain := f.loop(d/2, &out.wrong)
	var log spanLog
	log.startTracing()
	traced := f.loop(d/2, &out.wrong)
	spans := log.stopTracing()
	stats1 := f.coord.Stats()
	local := f.check(&out.wrong)

	sweeps := float64(len(plain.all) + len(traced.all))
	out.attempted = int64(sweeps) + plain.failed + traced.failed
	out.failed = plain.failed + traced.failed
	m["obs.trace_overhead_share"] = jobMedians(traced)/jobMedians(plain) - 1
	m["op.p95_ms"] = quantile(plain.all, 0.95)
	m["dist.count_p50_ms"] = median(plain.count)
	m["dist.enum_p50_ms"] = median(plain.enum)
	var localMs float64
	for _, t := range local {
		localMs += ms(t)
	}
	m["dist.local_ms"] = localMs / float64(len(local))
	m["dist.overhead_ratio"] = share(jobMedians(plain), localMs)
	m["dist.worker_exec_ms"] = mean(spanDurations(spans, "dist.exec"))
	perSweep := func(a, b uint64) float64 { return float64(b-a) / sweeps }
	m["dist.grants"] = perSweep(stats0.LeasesGranted, stats1.LeasesGranted)
	m["dist.retries"] = perSweep(stats0.Retries, stats1.Retries)
	m["dist.hedges"] = perSweep(stats0.Hedges, stats1.Hedges)
	m["dist.lease_expiries"] = perSweep(stats0.LeaseExpiries, stats1.LeaseExpiries)
	hedges := float64(stats1.Hedges - stats0.Hedges)
	m["dist.hedge_waste_share"] = share(hedges-float64(stats1.HedgeWins-stats0.HedgeWins), hedges)
	m["dist.payload_bytes"] = float64(plain.bytes+traced.bytes) / sweeps
	if log.dropped > 0 {
		return nil, fmt.Errorf("span ring overflowed (%v spans dropped)", log.dropped)
	}
	return out, nil
}
