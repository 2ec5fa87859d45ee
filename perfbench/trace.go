package main

import (
	"sort"
	"time"

	"ksettop/internal/obs"
)

// traceCapacity bounds the program's span ring during a traced run. The
// benchmark drains the ring after every phase, so it only has to hold one
// phase's spans; spanLog.dropped reports whether it ever overflowed.
const traceCapacity = 1 << 18

// spanLog switches span recording on and off around the phases of a traced
// run. Spans stay in memory, in the program's ring and then in the caller's
// slices; nothing is written out while the run measures.
type spanLog struct {
	// dropped counts spans the ring overwrote while tracing was on; the
	// benchmark fails the run rather than report figures missing them.
	dropped, base float64
}

// startTracing turns span recording on with an empty ring.
func (l *spanLog) startTracing() {
	obs.ResetTrace(traceCapacity)
	l.base = obs.DefaultRegistry().Values()["kset_obs_spans_dropped_total"]
	obs.SetTracingEnabled(true)
}

// stopTracing turns recording off and returns the ring's spans.
func (l *spanLog) stopTracing() []obs.SpanData {
	obs.SetTracingEnabled(false)
	got := obs.TraceSpans()
	obs.ResetTrace(0)
	l.dropped += obs.DefaultRegistry().Values()["kset_obs_spans_dropped_total"] - l.base
	return got
}

// selfTimes returns, per span name, the summed self time of spans: each
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []obs.SpanData) map[string]time.Duration {
	children := make(map[uint64][]obs.SpanData)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.DurNs - covered(s, children[s.SpanID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent obs.SpanData, kids []obs.SpanData) int64 {
	lo, hi := parent.StartUnixNs, parent.StartUnixNs+parent.DurNs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUnixNs, lo), min(k.StartUnixNs+k.DurNs, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// spanDurations returns the durations, in milliseconds, of the spans named name.
func spanDurations(spans []obs.SpanData, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// counterDelta snapshots a registry and returns, when called, how far each
// value has moved since.
func counterDelta(reg *obs.Registry) func() map[string]float64 {
	before := reg.Values()
	return func() map[string]float64 {
		after := reg.Values()
		for k, v := range before {
			after[k] -= v
		}
		return after
	}
}
