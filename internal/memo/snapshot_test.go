package memo

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
)

func TestSnapshotEntriesRoundTrip(t *testing.T) {
	c := NewCache[int](8)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // bump recency: LRU order is now b, c, a

	keys, vals := c.SnapshotEntries()
	if len(keys) != 3 || keys[0] != "b" || keys[1] != "c" || keys[2] != "a" {
		t.Fatalf("LRU-first keys = %v, want [b c a]", keys)
	}

	fresh := NewCache[int](8)
	fresh.Restore(keys, vals)
	for key, want := range map[string]int{"a": 1, "b": 2, "c": 3} {
		if got, ok := fresh.Get(key); !ok || got != want {
			t.Errorf("restored %q = %d (ok=%v), want %d", key, got, ok, want)
		}
	}
	// Recency must survive: with capacity 2 the next Put should evict "b".
	tiny := NewCache[int](2)
	tiny.Restore(keys[1:], vals[1:]) // c, a
	tiny.Put("d", 4)
	if _, ok := tiny.Get("c"); ok {
		t.Error("LRU entry should have been evicted after restore+put")
	}
	if _, ok := tiny.Get("a"); !ok {
		t.Error("MRU entry should have survived restore+put")
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCache[string](4)
	c.Put("x", "y")
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	if _, ok := c.Get("x"); ok {
		t.Error("entry survived Clear")
	}
	c.Put("x", "z") // the list must still be consistent
	if got, ok := c.Get("x"); !ok || got != "z" {
		t.Errorf("post-Clear Put/Get = %q, %v", got, ok)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	cache := NewCache[string](8)
	RegisterSnapshot("test.section",
		func() ([]byte, error) {
			keys, vals := cache.SnapshotEntries()
			var out []byte
			for i := range keys {
				out = append(out, byte(len(keys[i])))
				out = append(out, keys[i]...)
				out = append(out, byte(len(vals[i])))
				out = append(out, vals[i]...)
			}
			return out, nil
		},
		func(payload []byte) error {
			for len(payload) > 0 {
				kn := int(payload[0])
				key := string(payload[1 : 1+kn])
				payload = payload[1+kn:]
				vn := int(payload[0])
				cache.Put(key, string(payload[1:1+vn]))
				payload = payload[1+vn:]
			}
			return nil
		})

	cache.Put("alpha", "1")
	cache.Put("beta", "22")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	cache.Clear()
	if err := LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"alpha": "1", "beta": "22"} {
		if got, ok := cache.Get(key); !ok || got != want {
			t.Errorf("after load, %q = %q (ok=%v), want %q", key, got, ok, want)
		}
	}
}

// registerStringCache registers a length-prefixed string-cache section under
// name and returns the backing cache (sections cannot be unregistered, so
// every test uses a unique name).
func registerStringCache(name string) *Cache[string] {
	cache := NewCache[string](16)
	RegisterSnapshot(name,
		func() ([]byte, error) {
			keys, vals := cache.SnapshotEntries()
			var out []byte
			for i := range keys {
				out = append(out, byte(len(keys[i])))
				out = append(out, keys[i]...)
				out = append(out, byte(len(vals[i])))
				out = append(out, vals[i]...)
			}
			return out, nil
		},
		func(payload []byte) error {
			for len(payload) > 0 {
				kn := int(payload[0])
				key := string(payload[1 : 1+kn])
				payload = payload[1+kn:]
				vn := int(payload[0])
				cache.Put(key, string(payload[1:1+vn]))
				payload = payload[1+vn:]
			}
			return nil
		})
	return cache
}

// TestSnapshotBitFlipDetected flips every single bit of a v2 snapshot in
// turn and asserts the loader either rejects the file as corrupt or — when
// the flip lands in a section without an importer or in framing slack —
// never imports damaged bytes into the cache silently as a success with
// wrong contents.
func TestSnapshotBitFlipDetected(t *testing.T) {
	cache := registerStringCache("crc.section")
	cache.Put("alpha", "1")
	cache.Put("beta", "22")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for bit := 0; bit < len(data)*8; bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		cache.Clear()
		err := LoadSnapshot(path)
		if err == nil {
			// The only single-bit flips a CRC over name+payload cannot see
			// are in the framing outside any section (e.g. the section count
			// collapsing to 0): the load must then be a no-op, never an
			// import of damaged bytes.
			if n := cache.Len(); n != 0 {
				t.Fatalf("bit %d: flipped snapshot loaded cleanly with %d entries", bit, n)
			}
			continue
		}
		if errors.Is(err, checkpoint.ErrCorrupt) {
			rejected++
			var ce *checkpoint.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("bit %d: err %v is not a *checkpoint.CorruptError", bit, err)
			}
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("bit %d: corrupt load half-populated the cache (%d entries)", bit, n)
		}
	}
	if rejected == 0 {
		t.Fatal("no flip was detected by the checksum")
	}
}

// TestSnapshotTruncationDetected cuts a v2 snapshot short at every length
// and asserts the loader reports corruption instead of importing a prefix.
func TestSnapshotTruncationDetected(t *testing.T) {
	cache := registerStringCache("trunc.section")
	cache.Put("gamma", "333")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cache.Clear()
		if err := LoadSnapshot(path); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want checkpoint.ErrCorrupt", cut, err)
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("cut at %d: truncated load half-populated the cache (%d entries)", cut, n)
		}
	}
}

// TestSnapshotOlderVersionsStartCold pins the upgrade path: v1 (no
// checksums) and v2 (memo's own framing) snapshots are foreign to the
// shared codec, so they fail as corrupt — the callers' warn-and-start-cold
// path — and never touch the caches. The v2 image is a file an older build
// wrote for a cache holding k → v.
func TestSnapshotOlderVersionsStartCold(t *testing.T) {
	cache := registerStringCache("legacy.section")
	v2, err := hex.DecodeString("6b7365746d656d6f02010e6c65676163792e73656374696f6e04016b0176a0f8f598")
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("ksetmemo\x01"), v2[len("ksetmemo\x02"):len(v2)-4]...) // same section, no CRC
	for name, image := range map[string][]byte{"v1": v1, "v2": v2} {
		path := filepath.Join(t.TempDir(), "snap-"+name+".bin")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		cache.Clear()
		cache.Put("live", "entry")
		if err := LoadSnapshot(path); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s snapshot: err = %v, want checkpoint.ErrCorrupt", name, err)
		}
		if _, ok := cache.Get("k"); ok || cache.Len() != 1 {
			t.Fatalf("%s snapshot touched the cache (%d entries)", name, cache.Len())
		}
	}
}

// TestSnapshotOversizedCountIsCorrupt is the regression test for a section
// count larger than the file: it once sized an allocation before any check
// (makeslice: cap out of range). It must now be plain corruption.
func TestSnapshotOversizedCountIsCorrupt(t *testing.T) {
	cache := registerStringCache("oversized.section")
	for _, image := range oversizedCountImages() {
		path := filepath.Join(t.TempDir(), "snap.bin")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := LoadSnapshot(path); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("image %q: err = %v, want checkpoint.ErrCorrupt", image, err)
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("image %q: cache has %d entries", image, n)
		}
	}
}

// oversizedCountImages returns a v2 and a current snapshot image whose
// section count is 1<<62 with no bytes behind it.
func oversizedCountImages() [][]byte {
	var v2, v3 bytes.Buffer
	v2.WriteString("ksetmemo\x02")
	checkpoint.WriteUvarint(&v2, 1<<62)
	v3.Write(snapshotMagic)
	checkpoint.WriteUvarint(&v3, 0) // empty key
	checkpoint.WriteUvarint(&v3, 1<<62)
	return [][]byte{v2.Bytes(), v3.Bytes()}
}

// TestSnapshotFaultInjectedCorruption drives the memo.snapshot injection
// point: an armed corrupt rule flips seeded bits in the loaded bytes, and
// the checksums catch it.
func TestSnapshotFaultInjectedCorruption(t *testing.T) {
	cache := registerStringCache("fault.section")
	cache.Put("delta", "4444")
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(7, faultinject.Rule{
		Point:  faultinject.PointSnapshotLoad,
		Action: faultinject.ActionCorrupt,
		Every:  1, // every load
		Flips:  4,
	})
	defer faultinject.Disable()
	cache.Clear()
	if err := LoadSnapshot(path); err == nil {
		t.Fatal("fault-injected corruption loaded cleanly")
	}
	faultinject.Disable()
	if err := LoadSnapshot(path); err != nil {
		t.Fatalf("clean reload after disarm: %v", err)
	}
	if got, ok := cache.Get("delta"); !ok || got != "4444" {
		t.Errorf("restored delta = %q (ok=%v)", got, ok)
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadSnapshot(path); err == nil {
		t.Error("garbage file should be rejected")
	}
	if err := LoadSnapshot(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should error (callers decide whether that is fatal)")
	}
}
