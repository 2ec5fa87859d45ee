package dist

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func openForTest(t *testing.T, path, key string) (*Journal, map[int][]byte, bool) {
	t.Helper()
	j, commits, resumed, err := OpenJournal(path, key)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, commits, resumed
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, commits, resumed := openForTest(t, path, "job-A")
	if resumed || len(commits) != 0 {
		t.Fatalf("fresh journal: resumed=%v commits=%d", resumed, len(commits))
	}
	want := map[int][]byte{0: []byte("alpha"), 3: []byte("delta"), 1: {}}
	for shard, p := range want {
		if err := j.Append(shard, p); err != nil {
			t.Fatalf("Append(%d): %v", shard, err)
		}
	}
	j.Close()

	j2, commits, resumed := openForTest(t, path, "job-A")
	defer j2.Close()
	if !resumed {
		t.Fatal("want resumed=true")
	}
	if len(commits) != len(want) {
		t.Fatalf("recovered %d commits, want %d", len(commits), len(want))
	}
	for shard, p := range want {
		if !bytes.Equal(commits[shard], p) {
			t.Fatalf("shard %d: got %q want %q", shard, commits[shard], p)
		}
	}
}

// A torn tail — the expected artifact of a coordinator killed mid-append —
// must cost only the torn record: the good prefix survives and the file is
// truncated so later appends stay framed.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("first"))
	j.Append(1, []byte("second"))
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-10; cut-- {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, commits, resumed := openForTest(t, path, "job-A")
		if !resumed || len(commits) != 1 || !bytes.Equal(commits[0], []byte("first")) {
			t.Fatalf("cut=%d: want shard 0 only, got resumed=%v commits=%v", cut, resumed, commits)
		}
		// Appends after the truncation must stay parseable.
		if err := j2.Append(1, []byte("second-again")); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, commits, _ := openForTest(t, path, "job-A")
		if len(commits) != 2 || !bytes.Equal(commits[1], []byte("second-again")) {
			t.Fatalf("cut=%d: after re-append got %v", cut, commits)
		}
		j3.Close()
		os.WriteFile(path, data, 0o644) // restore for the next cut
	}
}

// A corrupted record mid-file keeps the prefix before it and drops the rest.
func TestJournalCorruptRecordKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("first"))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	off := fi.Size()
	j.Append(1, []byte("second"))
	j.Close()

	data, _ := os.ReadFile(path)
	data[int(off)+3] ^= 0xff // damage shard 1's record body
	os.WriteFile(path, data, 0o644)

	j2, commits, resumed := openForTest(t, path, "job-A")
	defer j2.Close()
	if !resumed || len(commits) != 1 || !bytes.Equal(commits[0], []byte("first")) {
		t.Fatalf("want shard 0 only, got resumed=%v commits=%v", resumed, commits)
	}
}

// A journal for a DIFFERENT job must never be resumed — it is reset.
func TestJournalForeignJobReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("payload"))
	j.Close()

	j2, commits, resumed := openForTest(t, path, "job-B")
	if resumed || len(commits) != 0 {
		t.Fatalf("foreign job resumed: resumed=%v commits=%v", resumed, commits)
	}
	j2.Append(0, []byte("fresh"))
	j2.Close()

	j3, commits, resumed := openForTest(t, path, "job-B")
	defer j3.Close()
	if !resumed || !bytes.Equal(commits[0], []byte("fresh")) {
		t.Fatalf("want job-B's own commit back, got resumed=%v commits=%v", resumed, commits)
	}
}

// A file that is not a journal at all starts fresh instead of erroring —
// recovery must never be blocked by garbage on disk.
func TestJournalGarbageFileReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, commits, resumed := openForTest(t, path, "job-A")
	defer j.Close()
	if resumed || len(commits) != 0 {
		t.Fatalf("garbage file: resumed=%v commits=%v", resumed, commits)
	}
}

func TestJournalRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _ := openForTest(t, path, "job-A")
	j.Append(0, []byte("payload"))
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal still on disk: %v", err)
	}
}

// TestJournalV1Resets pins the upgrade path: a version-1 journal (written
// by an older build with its own record framing) is a foreign file, so it
// is reset — resumed=false, nothing recovered — and the fresh journal works.
func TestJournalV1Resets(t *testing.T) {
	// job-A with shard 0 = "first" and shard 2 = "third", version-1 framing.
	v1, err := hex.DecodeString("6b736574646973746a01056a6f622d4100056669727374e9b891e502057468697264d1d71a1e")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	j, commits, resumed := openForTest(t, path, "job-A")
	if resumed || len(commits) != 0 {
		t.Fatalf("v1 journal resumed: resumed=%v commits=%v", resumed, commits)
	}
	if err := j.Append(2, []byte("third")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, commits, resumed := openForTest(t, path, "job-A")
	defer j2.Close()
	if !resumed || len(commits) != 1 || !bytes.Equal(commits[2], []byte("third")) {
		t.Fatalf("after reset: resumed=%v commits=%v", resumed, commits)
	}
}
