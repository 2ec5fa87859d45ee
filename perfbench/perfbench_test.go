package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/core"
	"ksettop/internal/dist"
	"ksettop/internal/serve"
	"ksettop/internal/topology"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	hot, err := newHotSet()
	if err != nil {
		t.Fatal(err)
	}
	a := mustMarshal(t, genStream(7, hot, 3000))
	b := mustMarshal(t, genStream(7, hot, 3000))
	if !bytes.Equal(a, b) {
		t.Fatal("request stream differs between two generations with seed 7")
	}
	if bytes.Equal(a, mustMarshal(t, genStream(8, hot, 3000))) {
		t.Fatal("seeds 7 and 8 give the same request stream")
	}
	if !bytes.Equal(mustMarshal(t, poissonArrivals(7, openRate, 500)), mustMarshal(t, poissonArrivals(7, openRate, 500))) {
		t.Fatal("arrival schedule differs between two generations with seed 7")
	}

	b1, err := genBatch(7)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := genBatch(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, b1), mustMarshal(t, b2)) {
		t.Fatal("instance batch differs between two generations with seed 7")
	}

	j1, err := genJobs(7)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := genJobs(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, j1), mustMarshal(t, j2)) {
		t.Fatal("fleet job list differs between two generations with seed 7")
	}
}

func TestColdTailNeverRepeats(t *testing.T) {
	hot, err := newHotSet()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range genStream(3, hot, 5000) {
		if knownDefects[r.Key] {
			t.Fatalf("known defect %s in the timed stream", r.Key)
		}
		if !r.Cold {
			continue
		}
		if seen[r.Key] {
			t.Fatalf("cold request %s repeats", r.Key)
		}
		seen[r.Key] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("only %d cold requests in 5000", len(seen))
	}
}

// boundsAnswer returns the server's answer to a bounds request, computed
// directly.
func boundsAnswer(t *testing.T, spec string, rounds int) serve.BoundsResponse {
	t.Helper()
	m, err := cli.ParseModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(m, rounds)
	if err != nil {
		t.Fatal(err)
	}
	resp := serve.BoundsResponse{N: m.N()}
	for _, b := range a.Best {
		resp.Best = append(resp.Best, serve.BoundRow{Rounds: b.Rounds, UpperK: b.Upper.K,
			UpperTheorem: b.Upper.Theorem, LowerK: b.Lower.K, LowerTheorem: b.Lower.Theorem, Tight: b.Tight})
	}
	return resp
}

func TestCheckerRejectsCorruptServiceAnswers(t *testing.T) {
	hot, err := newHotSet()
	if err != nil {
		t.Fatal(err)
	}
	// /v1/bounds: a wrong bound, and lower_k > upper_k.
	req := boundsRequest("stars:n=5,s=2", 2, false)
	good := boundsAnswer(t, "stars:n=5,s=2", 2)
	if err := checkAnswer(req, mustMarshal(t, good), hot.expect); err != nil {
		t.Fatalf("correct bounds answer rejected: %v", err)
	}
	bad := boundsAnswer(t, "stars:n=5,s=2", 2)
	bad.Best[1].UpperK++
	if checkAnswer(req, mustMarshal(t, bad), hot.expect) == nil {
		t.Error("bounds answer with a wrong upper_k accepted")
	}
	bad = boundsAnswer(t, "stars:n=5,s=2", 2)
	bad.Best[0].LowerK = bad.Best[0].UpperK + 1
	if checkAnswer(req, mustMarshal(t, bad), hot.expect) == nil {
		t.Error("bounds answer with lower_k > upper_k accepted")
	}

	// /v1/count: off by one.
	creq := countRequest("star:n=4", false)
	if err := checkAnswer(creq, mustMarshal(t, serve.CountResponse{Count: 1695}), hot.expect); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	if checkAnswer(creq, mustMarshal(t, serve.CountResponse{Count: 1694}), hot.expect) == nil {
		t.Error("count off by one accepted")
	}

	// /v1/solve: a flipped verdict.
	var solve request
	for _, r := range hot.small {
		if r.Path == "/v1/solve" {
			solve = r
			break
		}
	}
	want := hot.expect[solve.Key]
	if err := checkAnswer(solve, mustMarshal(t, serve.SolveResponse{Solvable: want}), hot.expect); err != nil {
		t.Fatalf("correct verdict rejected: %v", err)
	}
	if checkAnswer(solve, mustMarshal(t, serve.SolveResponse{Solvable: !want}), hot.expect) == nil {
		t.Errorf("flipped verdict on %s accepted", solve.Key)
	}

	// /v1/betti: a Betti vector that breaks Euler–Poincaré.
	breq := request{Path: "/v1/betti", Key: "betti|star:n=3|2|2",
		Body: mustJSON(serve.BettiRequest{Model: "star:n=3", Values: 2, MaxDim: 2})}
	if err := checkAnswer(breq, mustMarshal(t, serve.BettiResponse{Betti: []int{0, 0, 73}}), hot.expect); err != nil {
		t.Fatalf("correct Betti numbers rejected: %v", err)
	}
	if checkAnswer(breq, mustMarshal(t, serve.BettiResponse{Betti: []int{0, 0, 72}}), hot.expect) == nil {
		t.Error("Betti numbers breaking Euler–Poincaré accepted")
	}
}

func TestCheckerRejectsInconsistentAnswers(t *testing.T) {
	hot, err := newHotSet()
	if err != nil {
		t.Fatal(err)
	}
	req := boundsRequest("star:n=4", 1, false)
	good := mustMarshal(t, boundsAnswer(t, "star:n=4", 1))
	a := newAnswers()
	a.record(req, http.StatusOK, good)
	a.record(req, http.StatusOK, append(append([]byte(nil), good...), ' '))
	if wrong := a.check(hot); len(wrong) == 0 || !strings.Contains(wrong[0], "different answers") {
		t.Errorf("two different answers to one key accepted: %v", wrong)
	}

	// A refusal the library does not make is wrong; the known one is not.
	a = newAnswers()
	a.record(req, http.StatusInternalServerError, []byte(`{}`))
	if len(a.check(hot)) == 0 {
		t.Error("500 on an answerable request accepted")
	}
	a = newAnswers()
	a.record(boundsRequest("cycle:n=6", 2, false), http.StatusInternalServerError, []byte(`{}`))
	if wrong := a.check(hot); len(wrong) != 0 {
		t.Errorf("the library's own refusal counted wrong: %v", wrong)
	}
}

func TestCheckerRejectsCorruptVerifyAnswers(t *testing.T) {
	refute := instance{Class: classRefute, Spec: "star:n=3", Values: 3, K: 2}
	if checkResult(refute, result{solvable: true}) == nil {
		t.Error("solvable refutation accepted")
	}
	witness := instance{Class: classWitness, Spec: "star:n=3", Values: 4, K: 3}
	if checkResult(witness, result{solvable: false}) == nil {
		t.Error("unsolvable witness search accepted")
	}
	ca := instance{Class: classBetti, Spec: "star:n=4", CA: true, MaxDim: 2}
	if err := checkResult(ca, result{betti: []int{0, 0, 0}}); err != nil {
		t.Fatalf("(n−2)-connected C_A rejected: %v", err)
	}
	if checkResult(ca, result{betti: []int{0, 1, 0}}) == nil {
		t.Error("C_A with β̃_1 = 1 accepted")
	}

	pc := instance{Class: classBetti, Spec: "cycle:n=3", Values: 2, MaxDim: 2}
	fvec, err := simplexCounts(pc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(pc, result{betti: []int{0, 17, 16}, fvec: fvec}); err != nil {
		t.Fatalf("correct protocol-complex Betti numbers rejected: %v", err)
	}
	if checkResult(pc, result{betti: []int{0, 17, 17}, fvec: fvec}) == nil {
		t.Error("Betti numbers breaking Euler–Poincaré accepted")
	}
	m, err := cli.ParseModel("cycle:n=3")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.ProtocolComplexOneRound(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ac, _, err := c.ToAbstract()
	if err != nil {
		t.Fatal(err)
	}
	betti, err := topology.ReducedBettiNumbers(ac, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEuler(ac, betti); err != nil {
		t.Fatalf("engine's own Betti numbers fail Euler–Poincaré: %v", err)
	}
}

func TestCheckerRejectsCorruptFleetAnswers(t *testing.T) {
	ctx := context.Background()
	count := dist.Job{Op: dist.OpCount, Model: "star:n=4"}
	enum := dist.Job{Op: dist.OpEnum, Model: "star:n=4"}
	goodCount, err := dist.RunSequential(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	goodEnum, err := dist.RunSequential(ctx, enum)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleetCount(count.Model, goodCount); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	badEnum := append([]byte(nil), goodEnum...)
	badEnum[len(badEnum)/2] ^= 1
	// A wrong count, via its payload: star:n=4 has 1695 graphs, not 1696.
	f := &fleetSweep{jobs: []dist.Job{count, enum}, first: [][]byte{{0xa0, 0x0d}, badEnum}}
	var wrong []string
	f.check(&wrong)
	if len(wrong) != 3 {
		t.Errorf("want the corrupt count (twice: reference and closed form) and the corrupt enum rejected, got %v", wrong)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 150 * time.Millisecond
	due := make([]time.Duration, 12)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	res := openLoop(due, time.Second, 1, func(ctx context.Context, i int) bool {
		if i == 2 {
			time.Sleep(stall)
		}
		return true
	})
	if len(res) != len(due) {
		t.Fatalf("%d results for %d due requests", len(res), len(due))
	}
	if res[2].latency < stall {
		t.Errorf("stalled request latency %v < stall %v", res[2].latency, stall)
	}
	// Request 3 was due one gap after request 2 but could only be sent once
	// the stall ended; timed from its due time, it carries the stall.
	if want := stall - gap; res[3].latency < want {
		t.Errorf("request after the stall: latency %v, want ≥ %v", res[3].latency, want)
	}
	if res[1].latency > stall/2 {
		t.Errorf("request before the stall: latency %v", res[1].latency)
	}
}
