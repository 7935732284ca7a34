package artifact

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder. Each input is the file
// without its trailer: the target appends a fresh SHA-256 trailer before
// calling Decode, so mutations reach the payload, index and stats
// decoders instead of dying at the checksum. Decode must never panic, and
// every input it accepts must re-encode to exactly the bytes it read —
// the decoder accepts only the canonical form Encode writes.
//
// The checked-in corpus (testdata/fuzz/FuzzDecode) holds a valid fixture
// with stats, a truncated one, a retired version-2 header and a stats
// section with an oversized stage count.
func FuzzDecode(f *testing.F) {
	a := testArtifact(f)
	a.Stats = testStats()
	good, err := a.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:len(good)-sha256.Size])
	f.Fuzz(func(t *testing.T, body []byte) {
		file := seal(append([]byte(nil), body...))
		art, err := Decode(file)
		if err != nil {
			return
		}
		again, err := art.Encode()
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(again, file) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(file), len(again))
		}
	})
}

// TestSingleByteEditsReencodeIdentically is the deterministic sweep behind
// FuzzDecode's re-encode property: every single-byte substitution of the
// fixture (re-signed) that Decode accepts must re-encode to exactly the
// bytes it read. Edits that reverse or reorder an edge, or repeat a
// parent relation, are accepted by a decoder without the canonical-form
// checks and re-encode differently.
func TestSingleByteEditsReencodeIdentically(t *testing.T) {
	a := testArtifact(t)
	a.Stats = testStats()
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := good[:len(good)-sha256.Size]
	accepted := 0
	for off := range body {
		for _, v := range []byte{0, 1, 2, 3, 5, 0xff} {
			if body[off] == v {
				continue
			}
			edit := append([]byte(nil), body...)
			edit[off] = v
			file := seal(edit)
			art, err := Decode(file)
			if err != nil {
				continue
			}
			accepted++
			again, err := art.Encode()
			if err != nil || !bytes.Equal(again, file) {
				t.Fatalf("byte %d set to %#x: accepted, re-encodes differently (err %v)", off, v, err)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no edit was accepted; the sweep checks nothing")
	}
}
