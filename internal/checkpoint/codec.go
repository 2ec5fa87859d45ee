package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ksettop/internal/faultinject"
)

// The durable-file codec: the one framing behind every file a run resumes
// from — memo snapshots, checkpoints and the dist shard journal.
//
//	header  = magic (with trailing version byte) | lp(key)
//	record  = lp(name) | lp(payload) | CRC32-IEEE(name ‖ payload), little endian
//	lp(x)   = uvarint(len(x)) | x
//
// A sectioned file is header | uvarint(count) | count records, loaded
// strictly: any damage is one CorruptError and nothing is returned. A log
// file is header | records until EOF, loaded forgivingly: the intact prefix
// is kept and a torn tail is truncated. Varints must be minimally encoded,
// so every decoded file re-encodes to exactly its own bytes.

// ErrCorrupt is the sentinel every durable-file integrity failure —
// truncation, checksum mismatch, foreign bytes — matches under errors.Is.
// Callers treat it as "warn and start cold", never as fatal.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// CorruptError reports a durable file that failed validation.
type CorruptError struct {
	Path    string // the file that failed
	Section string // the section being read, if the failure was localized
	Reason  string // what failed
}

func (e *CorruptError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("checkpoint: corrupt file %s (section %q): %s", e.Path, e.Section, e.Reason)
	}
	return fmt.Sprintf("checkpoint: corrupt file %s: %s", e.Path, e.Reason)
}

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

func corruptf(path, section, format string, args ...any) error {
	return &CorruptError{Path: path, Section: section, Reason: fmt.Sprintf(format, args...)}
}

// minRecordLen is the smallest encoded record: two empty lp fields + CRC.
const minRecordLen = 6

// WriteUvarint appends v to buf as a varint — the framing primitive of the
// durable files and of the payload codecs stored in them.
func WriteUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// readUvarint reads a varint, rejecting non-minimal encodings.
func readUvarint(r *bytes.Reader) (uint64, error) {
	before := r.Len()
	v, err := binary.ReadUvarint(r)
	var tmp [binary.MaxVarintLen64]byte
	if err == nil && before-r.Len() != binary.PutUvarint(tmp[:], v) {
		err = errors.New("non-minimal varint")
	}
	return v, err
}

// ReadLengthPrefixed reads a varint length followed by that many bytes,
// rejecting lengths beyond the remaining input before allocating.
func ReadLengthPrefixed(r *bytes.Reader) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.Len())
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Section is one named record of a durable file.
type Section struct {
	Name    string
	Payload []byte
}

func recordCRC(name string, payload []byte) uint32 {
	crc := crc32.NewIEEE()
	io.WriteString(crc, name)
	crc.Write(payload)
	return crc.Sum32()
}

func appendHeader(buf *bytes.Buffer, magic []byte, key string) {
	buf.Write(magic)
	WriteUvarint(buf, uint64(len(key)))
	buf.WriteString(key)
}

func appendRecord(buf *bytes.Buffer, s Section) {
	WriteUvarint(buf, uint64(len(s.Name)))
	buf.WriteString(s.Name)
	WriteUvarint(buf, uint64(len(s.Payload)))
	buf.Write(s.Payload)
	buf.Write(binary.LittleEndian.AppendUint32(nil, recordCRC(s.Name, s.Payload)))
}

// readHeader checks the magic and returns the key and a reader at the body.
func readHeader(magic, data []byte) (*bytes.Reader, string, error) {
	if !bytes.HasPrefix(data, magic) {
		return nil, "", fmt.Errorf("unknown magic, want %q", magic)
	}
	r := bytes.NewReader(data[len(magic):])
	key, err := ReadLengthPrefixed(r)
	if err != nil {
		return nil, "", fmt.Errorf("key: %w", err)
	}
	return r, string(key), nil
}

// readRecord reads one record and verifies its checksum. On error the
// returned Section carries the name when it was read.
func readRecord(r *bytes.Reader) (Section, error) {
	name, err := ReadLengthPrefixed(r)
	if err != nil {
		return Section{}, fmt.Errorf("name: %w", err)
	}
	s := Section{Name: string(name)}
	if s.Payload, err = ReadLengthPrefixed(r); err != nil {
		return s, fmt.Errorf("payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return s, fmt.Errorf("checksum: %w", err)
	}
	if got, want := recordCRC(s.Name, s.Payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return s, fmt.Errorf("checksum mismatch (computed %08x, stored %08x)", got, want)
	}
	return s, nil
}

// EncodeSections serializes a sectioned file image.
func EncodeSections(magic []byte, key string, secs []Section) []byte {
	var buf bytes.Buffer
	appendHeader(&buf, magic, key)
	WriteUvarint(&buf, uint64(len(secs)))
	for _, s := range secs {
		appendRecord(&buf, s)
	}
	return buf.Bytes()
}

// DecodeSections parses a sectioned file image, verifying every checksum
// BEFORE returning anything, so a torn or rotted file never half-loads. Any
// damage is a CorruptError; path only labels it.
func DecodeSections(magic []byte, path string, data []byte) (string, []Section, error) {
	r, key, err := readHeader(magic, data)
	if err != nil {
		return "", nil, corruptf(path, "", "%v", err)
	}
	count, err := readUvarint(r)
	if err != nil {
		return "", nil, corruptf(path, "", "section count: %v", err)
	}
	// Bound the count by the remaining bytes before it sizes an allocation.
	if count > uint64(r.Len()/minRecordLen) {
		return "", nil, corruptf(path, "", "section count %d exceeds remaining %d bytes", count, r.Len())
	}
	secs := make([]Section, 0, count)
	for i := uint64(0); i < count; i++ {
		s, err := readRecord(r)
		if err != nil {
			return "", nil, corruptf(path, s.Name, "section %d %v", i, err)
		}
		secs = append(secs, s)
	}
	if r.Len() != 0 {
		return "", nil, corruptf(path, "", "%d trailing bytes", r.Len())
	}
	return key, secs, nil
}

// WriteFileAtomic publishes data at path durably: temp file in the same
// directory, fsync, rename. The file on disk is always either the previous
// one or the new one, never a mix, and a failed save leaves no temp file.
// beforeSync, when non-nil, runs between write and fsync; its error aborts
// the save.
func WriteFileAtomic(path string, data []byte, beforeSync func() error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".kset-tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			err = fmt.Errorf("checkpoint: %w", err)
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if beforeSync != nil {
		if err = beforeSync(); err != nil {
			return err
		}
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Log is an open log file positioned for appends.
type Log struct {
	path string
	f    *os.File
}

// OpenLog opens (or creates) the log file at path for key and returns the
// records already in it. The loaded bytes pass through faultinject.Corrupt
// at point. A torn or corrupt tail is truncated after the intact prefix; a
// missing, empty or foreign file, or one written for another key, is reset
// to a bare header and returns no records — never someone else's.
func OpenLog(path string, magic []byte, key, point string) (*Log, []Section, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	faultinject.Corrupt(point, data)
	recs, end, ok := decodeLog(magic, key, data)

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if !ok {
		var buf bytes.Buffer
		appendHeader(&buf, magic, key)
		end = buf.Len()
		if err = f.Truncate(0); err == nil {
			_, err = f.WriteAt(buf.Bytes(), 0)
		}
	} else if end < len(data) {
		err = f.Truncate(int64(end))
	}
	if err == nil {
		_, err = f.Seek(int64(end), io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Log{path: path, f: f}, recs, nil
}

// decodeLog validates the header against key and reads records up to the
// first damaged one. end is the byte offset after the last intact record;
// ok is false (and nothing is returned) when the header does not match.
func decodeLog(magic []byte, key string, data []byte) (recs []Section, end int, ok bool) {
	r, got, err := readHeader(magic, data)
	if err != nil || got != key {
		return nil, 0, false
	}
	for end = len(data) - r.Len(); r.Len() > 0; end = len(data) - r.Len() {
		s, err := readRecord(r)
		if err != nil {
			break
		}
		recs = append(recs, s)
	}
	return recs, end, true
}

// Append durably adds one record: a single write followed by fsync, so a
// record is either wholly present or (after a crash) truncated away on the
// next open.
func (l *Log) Append(s Section) error {
	var buf bytes.Buffer
	appendRecord(&buf, s)
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: log append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: log sync: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// Remove closes the log and deletes it from disk.
func (l *Log) Remove() error {
	l.f.Close()
	return os.Remove(l.path)
}
