package checkpoint

import (
	"bytes"
	"testing"
)

// memoMagic is the memo snapshot magic (internal/memo cannot be imported
// here without a cycle); memo's own tests pin that snapshots start with it.
var memoMagic = []byte("ksetmemo\x03")

// FuzzDecode drives the sectioned decoder under both the checkpoint and the
// memo snapshot magic with arbitrary bytes: it must never panic, and
// whenever it accepts an image, re-encoding the parsed sections must
// reproduce the image byte for byte (the format is canonical). Seeds cover
// valid images, truncations, bit flips and oversized section counts — the
// crash shapes the durability contract promises to survive.
func FuzzDecode(f *testing.F) {
	valid := Encode("ksetbounds|star:n=4|1", []Section{
		{Name: "solver.frontier#1", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "homology.reduction#2", Payload: bytes.Repeat([]byte{0xAB}, 64)},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(fileMagic)])
	f.Add([]byte{})
	f.Add([]byte("ksetckpt\x01"))
	f.Add([]byte("not a checkpoint at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	huge := Encode("job", []Section{{Name: "n#1", Payload: nil}})
	f.Add(huge)
	f.Add(EncodeSections(memoMagic, "", []Section{{Name: "graph.symclosure", Payload: []byte{2, 1, 0}}}))
	for _, oversized := range [][]byte{
		append([]byte("ksetmemo\x02"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40), // count 1<<62
		append(append([]byte(nil), memoMagic...), 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40),
	} {
		f.Add(oversized)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range [][]byte{fileMagic, memoMagic} {
			key, secs, err := DecodeSections(magic, "fuzz.file", data)
			if err != nil {
				continue // rejected input: the only requirement is "no panic"
			}
			if re := EncodeSections(magic, key, secs); !bytes.Equal(re, data) {
				t.Fatalf("magic %q: re-encoded image differs:\n got %x\nwant %x", magic, re, data)
			}
		}
	})
}

// FuzzDecodeLog drives the log reader with arbitrary file contents: it must
// never panic, the kept prefix must never reach past the input, re-encoding
// the accepted records must reproduce exactly the kept bytes, and a record
// appended after the kept prefix must read back as the next record.
func FuzzDecodeLog(f *testing.F) {
	magic, key := []byte("ksetdistj\x02"), "sweep|star:n=4"
	var valid bytes.Buffer
	appendHeader(&valid, magic, key)
	for _, s := range []Section{{Name: "0", Payload: []byte("first")}, {Name: "2", Payload: nil}, {Name: "1", Payload: []byte{0xFF, 0}}} {
		appendRecord(&valid, s)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Add(valid.Bytes()[:len(magic)+3])
	f.Add([]byte{})
	f.Add([]byte("ksetdistj\x01\x0esweep|star:n=4\x00\x05first\x01\x02\x03\x04"))
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)-10] ^= 0x08
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end, ok := decodeLog(magic, key, data)
		if !ok {
			if recs != nil || end != 0 {
				t.Fatalf("rejected header kept %d records, end %d", len(recs), end)
			}
			return
		}
		if end > len(data) {
			t.Fatalf("kept prefix %d reaches past the %d-byte input", end, len(data))
		}
		var re bytes.Buffer
		appendHeader(&re, magic, key)
		for _, s := range recs {
			appendRecord(&re, s)
		}
		if !bytes.Equal(re.Bytes(), data[:end]) {
			t.Fatalf("kept records re-encode to %x, kept bytes are %x", re.Bytes(), data[:end])
		}
		next := Section{Name: "next", Payload: []byte("appended")}
		appendRecord(&re, next)
		got, gotEnd, ok := decodeLog(magic, key, re.Bytes())
		if !ok || gotEnd != re.Len() || len(got) != len(recs)+1 || got[len(recs)].Name != next.Name {
			t.Fatalf("append after the kept prefix does not parse: ok=%v end=%d/%d records=%d", ok, gotEnd, re.Len(), len(got))
		}
	})
}
