package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lamofinder/internal/predict"
)

// fileVersion reads the format version out of encoded artifact bytes.
func fileVersion(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b[len(Magic):])
}

func TestIndexRoundTripByteIdentical(t *testing.T) {
	a := testArtifact(t)
	first, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Index == nil {
		t.Fatal("index lost across round trip")
	}
	second, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("save→load→save not byte-identical: %d vs %d bytes", len(first), len(second))
	}

	// The reconstructed index must replay the scorer exactly.
	scorer := a.NewScorer()
	for p := 0; p < a.Graph.N(); p++ {
		row := scorer.Scores(p)
		if !reflect.DeepEqual(loaded.Index.Row(p), row) {
			t.Fatalf("protein %d: index row %v, scorer %v", p, loaded.Index.Row(p), row)
		}
		if want := predict.TopK(row, 0); !reflect.DeepEqual(loaded.Index.Ranking(p), want) {
			t.Fatalf("protein %d: index ranking %v, TopK %v", p, loaded.Index.Ranking(p), want)
		}
	}
}

// TestIndexTamperRejected flips bits across the index section (the bytes
// after the model payload) and requires every variant to be rejected by
// the digest check.
func TestIndexTamperRejected(t *testing.T) {
	a := testArtifact(t)
	e := &enc{}
	if err := a.encodePayload(e); err != nil {
		t.Fatal(err)
	}
	indexStart := headerLen + len(e.buf)
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plen := binary.LittleEndian.Uint64(good[len(Magic)+4:])
	indexEnd := headerLen + int(plen)
	if indexStart >= indexEnd {
		t.Fatalf("no index bytes between offsets %d and %d", indexStart, indexEnd)
	}
	for off := indexStart; off < indexEnd; off += 3 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x08
		if _, err := Decode(bad); err == nil {
			t.Fatalf("accepted artifact with tampered index byte at offset %d", off)
		}
	}
}

// TestIndexConsistencyValidated re-signs artifacts whose index disagrees
// with the score matrix — a forgery the digest cannot catch because the
// digest is recomputed — and requires the decoder's semantic checks to
// reject them.
func TestIndexConsistencyValidated(t *testing.T) {
	mutate := func(t *testing.T, f func(ix *ScoreIndex) bool, wantErr string) {
		t.Helper()
		a := testArtifact(t)
		if !f(a.Index) {
			t.Skip("fixture shape cannot express this mutation")
		}
		a.digest = ""
		b, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(b)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("inconsistent index not rejected: %v", err)
		}
	}

	mutate(t, func(ix *ScoreIndex) bool {
		// Swap the two best entries of some protein: order violation.
		for p := range ix.ranked {
			if len(ix.ranked[p]) >= 2 {
				rk := ix.ranked[p]
				rk[0], rk[1] = rk[1], rk[0]
				return true
			}
		}
		return false
	}, "out of order")

	mutate(t, func(ix *ScoreIndex) bool {
		// Drop a ranked entry: ranking no longer covers the positive row.
		for p := range ix.ranked {
			if len(ix.ranked[p]) >= 1 {
				ix.ranked[p] = ix.ranked[p][:len(ix.ranked[p])-1]
				return true
			}
		}
		return false
	}, "positive scores")
}

// TestDigestChangesIffIndexChanges: the index is inside the identity, so
// rebuilding the same index keeps the digest at any parallelism, while a
// changed score changes it.
func TestDigestChangesIffIndexChanges(t *testing.T) {
	digest := func(t *testing.T, a *Artifact) string {
		t.Helper()
		d, err := a.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := digest(t, testArtifact(t))
	for _, workers := range []int{1, 4} {
		a := testArtifact(t)
		a.BuildIndex(workers)
		if d := digest(t, a); d != base {
			t.Fatalf("index digest depends on build parallelism %d: %s vs %s", workers, d, base)
		}
	}
	a := testArtifact(t)
	a.Index.scores[0] += 0.5
	a.digest = ""
	if d := digest(t, a); d == base {
		t.Fatal("digest unchanged by a changed index score")
	}
}

// TestLegacyVersionsRejected: the retired formats 1-3 are refused even
// behind a valid trailer, with an error that names the version and says
// to rebuild, and an artifact without a score index does not encode.
func TestLegacyVersionsRejected(t *testing.T) {
	good, err := testArtifact(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3} {
		old := append([]byte(nil), good[:len(good)-sha256.Size]...)
		binary.LittleEndian.PutUint32(old[len(Magic):], v)
		_, err := Decode(seal(old))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) ||
			!strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("version %d: got %v, want a rebuild error naming the version", v, err)
		}
	}
	a := testArtifact(t)
	a.Index = nil
	if _, err := a.Encode(); err == nil {
		t.Fatal("Encode accepted an artifact without a score index")
	}
}
