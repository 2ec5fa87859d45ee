package dist

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

const journalKillChildEnv = "KSET_JOURNAL_KILL_CHILD"

// killPayload is shard i's payload in the SIGKILL test: sizes vary so kills
// land inside records of different lengths.
func killPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 1+(i*977)%4096)
}

// TestJournalKillHelperProcess is not a test: re-executed as a child of
// TestJournalSIGKILLDuringAppendKeepsPrefix, it reopens the journal and
// appends the next shards in a tight loop until the parent SIGKILLs it.
func TestJournalKillHelperProcess(t *testing.T) {
	path := os.Getenv(journalKillChildEnv)
	if path == "" {
		t.Skip("helper process for the SIGKILL test")
	}
	j, commits, _, err := OpenJournal(path, "kill-test-job")
	if err != nil {
		t.Fatal(err)
	}
	for i := len(commits); ; i++ {
		if err := j.Append(i, killPayload(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestJournalSIGKILLDuringAppendKeepsPrefix is the journal's torn-write
// contract under a REAL kill: a subprocess appending shard commits as fast
// as it can is SIGKILLed at varied points, and reopening must return a
// contiguous committed prefix with exact payloads that never shrinks across
// rounds, after which an append must still parse.
func TestJournalSIGKILLDuringAppendKeepsPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill matrix; skipped with -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "victim.journal")

	committed := 0
	for round := 0; round < 8; round++ {
		cmd := exec.Command(exe, "-test.run=TestJournalKillHelperProcess$")
		cmd.Env = append(os.Environ(), journalKillChildEnv+"="+path)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(5+round*7) * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()

		j, commits, _, err := OpenJournal(path, "kill-test-job")
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		if len(commits) < committed {
			t.Fatalf("round %d: %d commits, fewer than the %d already durable", round, len(commits), committed)
		}
		for i := 0; i < len(commits); i++ {
			if !bytes.Equal(commits[i], killPayload(i)) {
				t.Fatalf("round %d: %d commits are not a contiguous exact prefix (shard %d)", round, len(commits), i)
			}
		}
		next := len(commits)
		err = j.Append(next, killPayload(next))
		j.Close()
		if err != nil {
			t.Fatalf("round %d: append after kill: %v", round, err)
		}
		j, commits, _, err = OpenJournal(path, "kill-test-job")
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(commits) != next+1 || !bytes.Equal(commits[next], killPayload(next)) {
			t.Fatalf("round %d: append after kill did not parse (%d commits, want %d)", round, len(commits), next+1)
		}
		committed = next + 1
	}
	t.Logf("%d shards committed across 8 kills", committed)
	if committed <= 8 {
		t.Skip("every kill landed before the child appended; torn tails not exercised")
	}
}
