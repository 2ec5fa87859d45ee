package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/memo"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/protocol"
)

func TestMemoSnapshotFlagRoundTrip(t *testing.T) {
	if err := LoadMemoSnapshot(""); err != nil {
		t.Errorf("empty path should be a no-op, got %v", err)
	}
	if err := SaveMemoSnapshot(""); err != nil {
		t.Errorf("empty path should be a no-op, got %v", err)
	}
	missing := filepath.Join(t.TempDir(), "absent.snap")
	if err := LoadMemoSnapshot(missing); err != nil {
		t.Errorf("missing file should be a cold start, got %v", err)
	}

	// Warm the closure cache through a real model build, save, reload.
	g, err := graph.Star(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.SymClosure([]graph.Digraph{g}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "memo.snap")
	if err := SaveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := LoadMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// The snapshot layer never flips the enable switch.
	if !memo.Enabled() {
		t.Error("snapshot round-trip changed the memo enable switch")
	}
}

// TestSaveMemoSnapshotSkippedWhileDisabled pins that a -memo=off run cannot
// overwrite a warm snapshot with empty caches.
func TestSaveMemoSnapshotSkippedWhileDisabled(t *testing.T) {
	defer memo.SetEnabled(true)
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := SaveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	memo.SetEnabled(false)
	if err := SaveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Error("disabled-memo run rewrote the snapshot file")
	}
}

// TestLoadMemoSnapshotCorruptStartsCold pins the torn-write recovery: a
// corrupt snapshot warns and cold-starts instead of failing the run.
func TestLoadMemoSnapshotCorruptStartsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.snap")
	if err := SaveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-file: the checksummed loader reports checkpoint.ErrCorrupt.
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadMemoSnapshot(path); err != nil {
		t.Fatalf("corrupt snapshot should cold-start, got %v", err)
	}
	// Foreign bytes likewise.
	if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadMemoSnapshot(path); err != nil {
		t.Fatalf("foreign file should cold-start, got %v", err)
	}
}

// TestExitCode pins the typed exit-code contract: budget rejections exit 2,
// other failures 1, success 0.
func TestExitCode(t *testing.T) {
	if got := ExitCode(nil); got != 0 {
		t.Errorf("nil → %d, want 0", got)
	}
	if got := ExitCode(os.ErrNotExist); got != 1 {
		t.Errorf("generic error → %d, want 1", got)
	}
	if got := ExitCode(fmt.Errorf("wrapped: %w", &protocol.BudgetError{Budget: 10, Nodes: 11})); got != 2 {
		t.Errorf("solver budget error → %d, want 2", got)
	}
	if got := ExitCode(fmt.Errorf("wrapped: %w", &model.EnumerationBudgetError{Budget: 5, Required: 9})); got != 2 {
		t.Errorf("enumeration budget error → %d, want 2", got)
	}
}

func TestApplySolverBudgetFlag(t *testing.T) {
	defer protocol.SetDefaultNodeBudget(0)
	if err := ApplySolverBudgetFlag(1234); err != nil {
		t.Fatal(err)
	}
	if got := protocol.DefaultNodeBudget(); got != 1234 {
		t.Errorf("budget = %d, want 1234", got)
	}
	if err := ApplySolverBudgetFlag(0); err != nil {
		t.Fatal(err)
	}
	if got := protocol.DefaultNodeBudget(); got != 50_000_000 {
		t.Errorf("budget = %d, want the stock 50M", got)
	}
	if err := ApplySolverBudgetFlag(-1); err == nil {
		t.Error("negative budget should be rejected")
	}
}

func TestApplyLogLevelFlag(t *testing.T) {
	defer obs.SetLevel(obs.LevelInfo)
	for _, v := range []string{"debug", "INFO", "warn", "warning", "Error"} {
		if err := ApplyLogLevelFlag(v); err != nil {
			t.Fatalf("ApplyLogLevelFlag(%q): %v", v, err)
		}
	}
	if err := ApplyLogLevelFlag("verbose"); err == nil {
		t.Error("unknown level should be rejected")
	}
}

func TestStartTraceOut(t *testing.T) {
	// Empty path: tracing stays off and the flush is a no-op.
	if err := StartTraceOut("")(); err != nil {
		t.Fatal(err)
	}
	if obs.TracingEnabled() {
		t.Fatal("empty -trace-out must not arm tracing")
	}

	obs.ResetTrace(0)
	defer func() {
		obs.SetTracingEnabled(false)
		obs.ResetTrace(0)
	}()
	path := filepath.Join(t.TempDir(), "trace.json")
	flush := StartTraceOut(path)
	if !obs.TracingEnabled() {
		t.Fatal("-trace-out must arm tracing")
	}
	_, span := obs.StartSpan(context.Background(), "cli.test")
	span.End()
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file holds no events")
	}
}
