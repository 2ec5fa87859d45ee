package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ksettop/internal/bits"
	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/model"
	"ksettop/internal/model/modeltest"
)

func testModel(t *testing.T, spec string) *model.ClosedAbove {
	t.Helper()
	m, err := cli.ParseModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// countAcc computes the genuine durable accumulator of OpCount over
// [lo, pos): the 8-byte LE running count.
func countAcc(t *testing.T, m *model.ClosedAbove, lo, pos int64) []byte {
	t.Helper()
	op, _ := LookupOp(OpCount)
	payload, err := op.Run(context.Background(), m, lo, pos)
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodeCount(payload)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]byte, 8)
	binary.LittleEndian.PutUint64(acc, uint64(n))
	return acc
}

// enumAcc computes the genuine durable accumulator of OpEnum over [lo, pos):
// the payload prefix emitted for those ranks.
func enumAcc(t *testing.T, m *model.ClosedAbove, lo, pos int64) []byte {
	t.Helper()
	op, _ := LookupOp(OpEnum)
	payload, err := op.Run(context.Background(), m, lo, pos)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDistShardResumeByteIdentity pins the op-level durability contract: a
// durable op resumed from a mid-shard accumulator produces exactly the bytes
// of a cold run, for every registered op and at every split point.
func TestDistShardResumeByteIdentity(t *testing.T) {
	m := testModel(t, "star:n=4")
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(0), e.Size() // 2048 ranks
	ctx := context.Background()

	for _, opName := range []string{OpCount, OpEnum} {
		op, ok := LookupOp(opName)
		if !ok || op.Resume == nil {
			t.Fatalf("%s: no durable variant registered", opName)
		}
		want, err := op.Run(ctx, m, lo, hi)
		if err != nil {
			t.Fatal(err)
		}

		// nil state: identical to a cold run.
		got, err := op.Resume(ctx, m, lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: nil-state durable run differs from cold run", opName)
		}

		for _, pos := range []int64{lo + 1, lo + 100, 1024, hi - 1, hi} {
			var acc []byte
			if opName == OpCount {
				acc = countAcc(t, m, lo, pos)
			} else {
				acc = enumAcc(t, m, lo, pos)
			}
			st := &ShardState{}
			st.Set(pos, acc)
			got, err := op.Resume(ctx, m, lo, hi, st)
			if err != nil {
				t.Fatalf("%s resume@%d: %v", opName, pos, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s resume@%d: payload differs from cold run (%d vs %d bytes)",
					opName, pos, len(got), len(want))
			}
		}

		// Stale or malformed states must be ignored, never trusted: position
		// at/below lo, beyond hi, and (for count) a wrong-length accumulator.
		for _, bad := range []struct {
			name string
			pos  int64
			acc  []byte
		}{
			{"pos=lo", lo, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{"pos>hi", hi + 1, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{"short-acc", 1024, []byte{9}},
		} {
			if opName == OpEnum && bad.name == "short-acc" {
				continue // any byte prefix is structurally valid for enum
			}
			st := &ShardState{}
			st.Set(bad.pos, bad.acc)
			got, err := op.Resume(ctx, m, lo, hi, st)
			if err != nil {
				t.Fatalf("%s %s: %v", opName, bad.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s state skewed the payload", opName, bad.name)
			}
		}
	}
}

// TestDistShardResumeFromLastFlush resumes a shard from the progress its own
// completed execution last recorded. On multi-generator models the scan
// skips the ranks a lower generator owns, so the recorded position must be
// the rank after the last element folded into the accumulator; lo plus the
// number of folded elements falls behind it, and a shard resumed there
// re-emits elements under a CRC that still checks out (star:n=5 enum came
// back 4045778 bytes instead of 3687461).
func TestDistShardResumeFromLastFlush(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []string{"star:n=5", "cycle:n=5"} {
		m := testModel(t, spec)
		size, err := m.EnumerationSize()
		if err != nil {
			t.Fatal(err)
		}
		for _, opName := range []string{OpCount, OpEnum} {
			op, _ := LookupOp(opName)
			want, err := op.Run(ctx, m, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			st := &ShardState{}
			if got, err := op.Resume(ctx, m, 0, size, st); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s %s: durable run differs from cold run (err %v)", spec, opName, err)
			}
			pos, acc := st.Snapshot()
			if pos <= 0 || pos >= size {
				t.Fatalf("%s %s: recorded position %d, want one inside (0, %d)", spec, opName, pos, size)
			}
			var folded []byte
			if opName == OpCount {
				folded = countAcc(t, m, 0, pos)
			} else {
				folded = enumAcc(t, m, 0, pos)
			}
			if !bytes.Equal(acc, folded) {
				t.Fatalf("%s %s: accumulator at position %d is not the fold of ranks [0, %d)", spec, opName, pos, pos)
			}
			got, err := op.Resume(ctx, m, 0, size, st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: resumed from position %d, payload differs from cold run (%d vs %d bytes)",
					spec, opName, pos, len(got), len(want))
			}
		}
	}
}

// TestDistShardResumeAtShardEnd resumes a shard whose last element was a
// flush point, so the recorded position equals hi: a state kept after the
// last flush (a cancel before delivery, or a crash after the checkpoint
// save) is re-granted over the empty window [hi, hi), which must return the
// recorded accumulator as the whole payload and stop at once. The windows
// end inside a segment, where the scan has ranks left to step.
func TestDistShardResumeAtShardEnd(t *testing.T) {
	for _, spec := range []string{"star:n=5", "cycle:n=5"} {
		m := testModel(t, spec)
		e, err := m.Enumeration()
		if err != nil {
			t.Fatal(err)
		}
		lo := e.Size() / 3
		if spec == "star:n=5" {
			lo = 0
		}
		// hi is one past the shard's (shardFlushMask+1)-th element.
		hi, seen := int64(-1), 0
		e.RangeMasks(lo, e.Size(), func(rank int64, _ bits.Words) bool {
			seen++
			hi = rank + 1
			return seen <= shardFlushMask
		})
		if seen != shardFlushMask+1 {
			t.Fatalf("%s: only %d elements past rank %d", spec, seen, lo)
		}
		for _, opName := range []string{OpCount, OpEnum} {
			op, _ := LookupOp(opName)
			want, err := op.Run(context.Background(), m, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			st := &ShardState{}
			if _, err := op.Resume(context.Background(), m, lo, hi, st); err != nil {
				t.Fatal(err)
			}
			if pos, _ := st.Snapshot(); pos != hi {
				t.Fatalf("%s %s: recorded position %d, want the shard end %d", spec, opName, pos, hi)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			got, err := op.Resume(ctx, m, lo, hi, st)
			cancel()
			if err != nil {
				t.Fatalf("%s %s: resume at the shard end: %v", spec, opName, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: resume at the shard end differs from cold run (%d vs %d bytes)",
					spec, opName, len(got), len(want))
			}
		}
	}
}

// TestDistWorkerRejectsReversedRange: a grant whose rank range is reversed
// or negative is a bad request; an empty one is a valid, empty shard.
func TestDistWorkerRejectsReversedRange(t *testing.T) {
	w := NewWorker(WorkerConfig{Logf: func(string, ...any) {}})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	for _, bad := range [][2]int64{{100, 50}, {-1, 10}} {
		if _, status := execShard(t, ts.URL, ExecRequest{Op: OpCount, Model: "star:n=5", From: bad[0], To: bad[1]}); status != http.StatusBadRequest {
			t.Fatalf("range [%d, %d): status %d, want %d", bad[0], bad[1], status, http.StatusBadRequest)
		}
	}
	for opName, want := range map[string][]byte{OpCount: {0}, OpEnum: nil} {
		got, status := execShard(t, ts.URL, ExecRequest{Op: opName, Model: "star:n=5", From: 4000, To: 4000})
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s empty range: status %d, payload %v", opName, status, got)
		}
	}
}

// TestDistEnumPayloadMatchesSortedEncoder pins the enum wire format against
// an independent encoder: collect each element's edge-bit positions, sort
// them, then write the count and the ascending deltas as uvarints.
func TestDistEnumPayloadMatchesSortedEncoder(t *testing.T) {
	ctx := context.Background()
	op, _ := LookupOp(OpEnum)
	straddling, err := model.New(modeltest.WordStraddlingGenerators())
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*model.ClosedAbove{"n=9 word-straddling": straddling}
	for _, spec := range []string{"star:n=4", "cycle:n=5", "stars:n=5,s=2"} {
		models[spec] = testModel(t, spec)
	}
	for spec, m := range models {
		e, err := m.Enumeration()
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range [][2]int64{{0, e.Size()}, {e.Size() / 3, e.Size()/3 + 5000}} {
			lo, hi := cut[0], min(cut[1], e.Size())
			var want bytes.Buffer
			var positions []int
			e.RangeMasks(lo, hi, func(_ int64, mask bits.Words) bool {
				positions = positions[:0]
				mask.ForEachBit(func(bit int) { positions = append(positions, bit) })
				sort.Ints(positions)
				checkpoint.WriteUvarint(&want, uint64(len(positions)))
				prev := 0
				for _, p := range positions {
					checkpoint.WriteUvarint(&want, uint64(p-prev))
					prev = p
				}
				return true
			})
			got, err := op.Run(ctx, m, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s [%d, %d): enum payload differs from the sorted encoder (%d vs %d bytes)", spec, lo, hi, len(got), want.Len())
			}
		}
	}
}

// TestDistShardTableCheckpointRoundTrip: the shard-progress table encodes to
// a checkpoint section and restores losslessly; live executions are never
// overwritten; garbage payloads are rejected whole.
func TestDistShardTableCheckpointRoundTrip(t *testing.T) {
	t1 := newShardTable()
	a := t1.claim("count|star:n=4|0|1024", 0)
	a.Set(512, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	t1.release("count|star:n=4|0|1024", false)
	b := t1.claim("enum|star:n=4|1024|2048", 1024)
	b.Set(1500, []byte("partial-enum-bytes"))
	t1.release("enum|star:n=4|1024|2048", false)

	payload, err := t1.encode()
	if err != nil {
		t.Fatal(err)
	}
	t2 := newShardTable()
	if err := t2.restore(payload); err != nil {
		t.Fatal(err)
	}
	payload2, err := t2.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("restore→encode is not the identity")
	}
	if pos, acc := t2.states["enum|star:n=4|1024|2048"].Snapshot(); pos != 1500 || string(acc) != "partial-enum-bytes" {
		t.Fatalf("restored state pos=%d acc=%q", pos, acc)
	}

	// A key executing RIGHT NOW must not be clobbered by a stale checkpoint.
	live := t2.claim("enum|star:n=4|1024|2048", 1024)
	live.Set(2000, []byte("live"))
	if err := t2.restore(payload); err != nil {
		t.Fatal(err)
	}
	if pos, _ := live.Snapshot(); pos != 2000 {
		t.Fatalf("restore overwrote a live execution (pos %d)", pos)
	}

	// Garbage payloads: rejected with an error, table untouched.
	for _, garbage := range [][]byte{
		{},
		{99},                              // wrong version
		{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // absurd entry count
		append(payload, 0xAA),             // trailing bytes
	} {
		if err := newShardTable().restore(garbage); err == nil {
			t.Fatalf("garbage payload %v accepted", garbage)
		}
	}
}

// execShard POSTs one shard grant to a worker and returns the payload.
func execShard(t *testing.T, url string, req ExecRequest) ([]byte, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/dist/v1/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ExecResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return er.Payload, resp.StatusCode
}

// TestDistWorkerKillRestartResumeByteIdentity is the worker-level durability
// contract: a worker restarted over the checkpoint of a crashed predecessor
// resumes the in-flight shard mid-range, and the payload it delivers is
// byte-identical to one computed cold.
func TestDistWorkerKillRestartResumeByteIdentity(t *testing.T) {
	m := testModel(t, "star:n=4")
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(0), e.Size()
	path := filepath.Join(t.TempDir(), "worker.ckpt")

	// "Crash" a worker mid-shard: record genuine partial progress for both
	// ops into a checkpoint file, the way the runner's cadence would have.
	crashed := newShardTable()
	for _, opName := range []string{OpCount, OpEnum} {
		key := fmt.Sprintf("%s|star:n=4|%d|%d", opName, lo, hi)
		st := crashed.claim(key, lo)
		if opName == OpCount {
			st.Set(1000, countAcc(t, m, lo, 1000))
		} else {
			st.Set(1000, enumAcc(t, m, lo, 1000))
		}
		crashed.release(key, false) // crash: execution ended, payload never delivered
	}
	r1 := checkpoint.NewRunner(path, "job", 0)
	r1.Register(kindDistShards, distShardsFP(), crashed.encode)
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh worker over the same checkpoint file.
	r2 := checkpoint.NewRunner(path, "job", 0)
	if !r2.LoadForResume() {
		t.Fatal("worker checkpoint did not load")
	}
	w2 := NewWorker(WorkerConfig{Checkpoint: r2, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(w2.Handler())
	defer ts.Close()

	for _, opName := range []string{OpCount, OpEnum} {
		op, _ := LookupOp(opName)
		want, err := op.Run(context.Background(), m, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, status := execShard(t, ts.URL, ExecRequest{Op: opName, Model: "star:n=4", From: lo, To: hi})
		if status != http.StatusOK {
			t.Fatalf("%s: exec status %d", opName, status)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: resumed worker payload differs from cold run (%d vs %d bytes)",
				opName, len(got), len(want))
		}
		// Delivery drops the durable entry — resuming a committed shard
		// again would be wasted work.
		key := fmt.Sprintf("%s|star:n=4|%d|%d", opName, lo, hi)
		w2.shards.mu.Lock()
		_, still := w2.shards.states[key]
		w2.shards.mu.Unlock()
		if still {
			t.Fatalf("%s: shard entry survived successful delivery", opName)
		}
	}
}

// TestDistWorkerCheckpointLeaseExpiryRecordsProgress aborts a real shard
// execution mid-range (lease deadline on a 753k-rank shard) and checks the
// interrupted progress lands in the checkpoint file, then finishes the shard
// on a restarted worker and requires the cold-run bytes. The shard starts at
// cycle:n=5's second generator segment, so every rank it scans can be owned
// by a lower generator and the resume position must account for the ranks
// the scan skipped.
func TestDistWorkerCheckpointLeaseExpiryRecordsProgress(t *testing.T) {
	const spec = "cycle:n=5"
	m := testModel(t, spec)
	e, err := m.Enumeration()
	if err != nil {
		t.Fatal(err)
	}
	// The 24 generators are directed 5-cycles with 2^15 ranks each, so
	// segment 1 starts at Size / 24.
	if m.GeneratorCount() != 24 || e.Size() != 24<<15 {
		t.Fatalf("%s: %d generators, %d ranks; want 24 segments of 2^15", spec, m.GeneratorCount(), e.Size())
	}
	lo, hi := e.Size()/24, e.Size()
	path := filepath.Join(t.TempDir(), "worker.ckpt")

	r1 := checkpoint.NewRunner(path, "job", 0)
	w1 := NewWorker(WorkerConfig{Checkpoint: r1, Logf: func(string, ...any) {}})
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()

	// A lease far too short for 753k ranks of enum serialization: the worker
	// must give up at the deadline, leaving its progress in the shard table.
	req := ExecRequest{Op: OpEnum, Model: spec, From: lo, To: hi, LeaseMs: 5}
	key := shardKey(req)
	deadline := time.Now().Add(10 * time.Second)
	aborted := false
	for time.Now().Before(deadline) {
		if _, status := execShard(t, ts1.URL, req); status == http.StatusGatewayTimeout {
			w1.shards.mu.Lock()
			st := w1.shards.states[key]
			w1.shards.mu.Unlock()
			if st == nil {
				t.Fatal("aborted shard left no entry in the shard table")
			}
			if pos, _ := st.Snapshot(); pos > lo {
				aborted = true
				break
			}
		}
	}
	if !aborted {
		t.Skip("machine finished a 753k-rank shard inside a 5ms lease; nothing to resume")
	}
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}

	r2 := checkpoint.NewRunner(path, "job", 0)
	if !r2.LoadForResume() {
		t.Fatal("checkpoint did not load after lease expiry")
	}
	w2 := NewWorker(WorkerConfig{Checkpoint: r2, Logf: func(string, ...any) {}})
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()

	op, _ := LookupOp(OpEnum)
	want, err := op.Run(context.Background(), m, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, status := execShard(t, ts2.URL, ExecRequest{Op: OpEnum, Model: spec, From: lo, To: hi})
	if status != http.StatusOK {
		t.Fatalf("resume exec status %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart payload differs from cold run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDistSweepWithCheckpointingWorkersByteIdentity runs a full distributed
// sweep on checkpointing workers: durable execution must be invisible in the
// merged result.
func TestDistSweepWithCheckpointingWorkersByteIdentity(t *testing.T) {
	dir := t.TempDir()
	addrs := make([]string, 2)
	for i := range addrs {
		r := checkpoint.NewRunner(filepath.Join(dir, fmt.Sprintf("w%d.ckpt", i)), "job", 0)
		ts := httptest.NewServer(NewWorker(WorkerConfig{Checkpoint: r, Logf: func(string, ...any) {}}).Handler())
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	c := NewCoordinator(testCoordConfig(addrs))
	for _, opName := range []string{OpCount, OpEnum} {
		job := Job{Op: opName, Model: "star:n=4"}
		want, err := RunSequential(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sweep over checkpointing workers differs from sequential", opName)
		}
	}
}
