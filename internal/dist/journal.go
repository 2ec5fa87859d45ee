package dist

import (
	"fmt"
	"strconv"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
)

// The shard journal is the coordinator's crash-recovery log: a
// checkpoint-codec log file of committed shard results, one CRC-checksummed
// record per commit, named by shard index. A coordinator killed mid-sweep
// reopens the journal on restart, replays the committed prefix, and resumes
// dispatching only the missing shards — the merged output is byte-identical
// to an uninterrupted run because the merge consumes results in shard-index
// order regardless of commit order.
//
// Torn writes are the expected failure mode of a killed coordinator, so
// loading is forgiving by construction: the committed prefix up to the first
// damaged record is kept and the file is truncated back to the last good
// byte, while a journal whose header names a DIFFERENT job (or a foreign
// file, including an older journal version) is reset — resuming someone
// else's sweep would corrupt results.

// journalMagic identifies the journal format (trailing version byte).
var journalMagic = []byte("ksetdistj\x02")

// Journal is an open shard journal positioned for appends.
type Journal struct {
	log *checkpoint.Log
}

// OpenJournal opens (or creates) the journal at path for the job identified
// by jobKey and returns the shard results already committed. A missing or
// empty file starts a fresh journal; a journal for a different job or with
// an unreadable header is reset to fresh (reported via resumed=false); a
// journal with a torn or corrupt tail keeps its good prefix and truncates
// the damage away. Later records for a shard replace earlier ones. resumed
// reports whether any committed shards were recovered.
func OpenJournal(path, jobKey string) (j *Journal, commits map[int][]byte, resumed bool, err error) {
	log, recs, err := checkpoint.OpenLog(path, journalMagic, jobKey, faultinject.PointDistJournal)
	if err != nil {
		return nil, nil, false, fmt.Errorf("dist: journal: %w", err)
	}
	commits = make(map[int][]byte, len(recs))
	for _, rec := range recs {
		if shard, err := strconv.Atoi(rec.Name); err == nil {
			commits[shard] = rec.Payload
		}
	}
	return &Journal{log: log}, commits, len(commits) > 0, nil
}

// Append durably commits one shard result (one fsynced record).
func (j *Journal) Append(shard int, payload []byte) error {
	if err := j.log.Append(checkpoint.Section{Name: strconv.Itoa(shard), Payload: payload}); err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// Remove deletes the journal from disk — called after a sweep completes and
// its result has been handed to the caller; the next sweep starts fresh.
func (j *Journal) Remove() error { return j.log.Remove() }
