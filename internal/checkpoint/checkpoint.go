// Package checkpoint persists the progress of long engine runs — solver
// refutations, homology reductions, distributed shard executions — so a
// crashed or signalled process resumes instead of recomputing. It also owns
// the durable-file codec (codec.go) that memo snapshots and the dist shard
// journal are written in.
//
// A checkpoint is a sectioned file (magic ksetckpt\x01): a header naming the
// job the checkpoint belongs to, then named sections, each CRC32-checksummed
// so torn writes and bit rot are detected at load. Writers go through the
// codec's atomic temp-file + fsync + rename, so the file on disk is always
// either the previous checkpoint or the new one, never a mix.
//
// The durability contract, pinned by the kill-and-restart chaos tests:
// a run resumed from ANY checkpoint produces results byte-identical to an
// uninterrupted run, and a corrupt, truncated or foreign checkpoint file
// cold-starts cleanly (warn-level log, full recompute) — it never wedges a
// tool or skews a result. Sections carry an engine fingerprint of the exact
// workload, so a checkpoint from a different model, budget or flag set is
// ignored rather than resumed.
package checkpoint

import (
	"errors"
	"fmt"
	"os"

	"ksettop/internal/faultinject"
)

// fileMagic identifies the checkpoint format; the trailing version byte
// bumps on incompatible changes. Loaders reject other magics outright.
var fileMagic = []byte("ksetckpt\x01")

// ErrJobMismatch is the sentinel a JobMismatchError matches: the file is a
// valid checkpoint, but of a DIFFERENT job (other tool, model or flag set).
// Like corruption, it means cold start — resuming someone else's frontier
// would skew results.
var ErrJobMismatch = errors.New("checkpoint: job key mismatch")

// JobMismatchError reports a structurally valid checkpoint of another job.
type JobMismatchError struct {
	Path string
	Want string
	Got  string
}

func (e *JobMismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s belongs to job %q, want %q", e.Path, e.Got, e.Want)
}

// Is matches ErrJobMismatch.
func (e *JobMismatchError) Is(target error) bool { return target == ErrJobMismatch }

// Encode serializes a checkpoint image: header, job key, sections.
func Encode(jobKey string, secs []Section) []byte {
	return EncodeSections(fileMagic, jobKey, secs)
}

// Save atomically writes a checkpoint. The faultinject points let the chaos
// suite and the production -faults flag model a write error, a failed
// fsync, and a torn write (bytes corrupted between encode and disk — caught
// by the CRCs at the next load).
func Save(path, jobKey string, secs []Section) error {
	data := Encode(jobKey, secs)
	if err := faultinject.Hit(faultinject.PointCheckpointWrite); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	faultinject.Corrupt(faultinject.PointCheckpointWrite, data)
	return WriteFileAtomic(path, data, func() error {
		if err := faultinject.Hit(faultinject.PointCheckpointFsync); err != nil {
			return fmt.Errorf("fsync %s: %w", path, err)
		}
		return nil
	})
}

// Load reads and validates a checkpoint file, returning its sections. A
// job-key mismatch returns a JobMismatchError (matching ErrJobMismatch);
// integrity failures return a CorruptError (matching ErrCorrupt). The
// faultinject load point models on-disk rot and unreadable files for the
// chaos suite and -faults.
func Load(path, wantJob string) ([]Section, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := faultinject.Hit(faultinject.PointCheckpointLoad); err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	faultinject.Corrupt(faultinject.PointCheckpointLoad, data)
	job, secs, err := DecodeSections(fileMagic, path, data)
	if err != nil {
		return nil, err
	}
	if job != wantJob {
		return nil, &JobMismatchError{Path: path, Want: wantJob, Got: job}
	}
	return secs, nil
}
