package crypto

import (
	"bytes"
	"encoding/base64"
	"strings"
	"testing"
	"testing/quick"
)

func testKeyring(t *testing.T) *Keyring {
	t.Helper()
	master := bytes.Repeat([]byte{7}, KeySize)
	k, err := NewKeyring(master)
	if err != nil {
		t.Fatalf("NewKeyring: %v", err)
	}
	return k
}

func TestNewKeyringRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 16, 31, 33, 64} {
		if _, err := NewKeyring(make([]byte, n)); err == nil {
			t.Errorf("NewKeyring accepted %d-byte key", n)
		}
	}
}

func TestNewRandomKeyring(t *testing.T) {
	k1, m1, err := NewRandomKeyring()
	if err != nil {
		t.Fatal(err)
	}
	k2, m2, err := NewRandomKeyring()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(m1, m2) {
		t.Error("two random master keys are equal")
	}
	if k1.Pseudonym("x") == k2.Pseudonym("x") {
		t.Error("different keys give equal pseudonyms")
	}
	// The returned master key must reconstruct the same keyring.
	k1b, err := NewKeyring(m1)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Pseudonym("x") != k1b.Pseudonym("x") {
		t.Error("keyring not reproducible from returned master key")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := testKeyring(t)
	for _, msg := range []string{"", "a", "PRS-00042", strings.Repeat("long ", 100)} {
		sealed, err := k.Seal([]byte(msg))
		if err != nil {
			t.Fatalf("Seal(%q): %v", msg, err)
		}
		pt, err := k.Open(sealed)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if string(pt) != msg {
			t.Errorf("round trip = %q, want %q", pt, msg)
		}
	}
}

func TestSealIsRandomized(t *testing.T) {
	k := testKeyring(t)
	a, _ := k.Seal([]byte("same"))
	b, _ := k.Seal([]byte("same"))
	if bytes.Equal(a, b) {
		t.Error("two seals of the same plaintext are identical (nonce reuse?)")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := testKeyring(t)
	sealed, _ := k.Seal([]byte("secret"))
	for i := range sealed {
		mutated := append([]byte(nil), sealed...)
		mutated[i] ^= 0x01
		if _, err := k.Open(mutated); err == nil {
			t.Fatalf("Open accepted ciphertext with byte %d flipped", i)
		}
	}
	if _, err := k.Open(nil); err == nil {
		t.Error("Open accepted nil")
	}
	if _, err := k.Open([]byte("short")); err == nil {
		t.Error("Open accepted short input")
	}
}

func TestOpenRejectsOtherKey(t *testing.T) {
	k1 := testKeyring(t)
	k2, err := NewKeyring(bytes.Repeat([]byte{9}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := k1.Seal([]byte("secret"))
	if _, err := k2.Open(sealed); err == nil {
		t.Error("Open under a different key succeeded")
	}
}

func TestSealStringRoundTrip(t *testing.T) {
	k := testKeyring(t)
	sealed, err := k.Seal([]byte("PRS-0001"))
	if err != nil {
		t.Fatal(err)
	}
	enc := base64.URLEncoding.EncodeToString(sealed)
	if strings.Contains(enc, "PRS") {
		t.Error("sealed string leaks plaintext")
	}
	got, err := k.OpenString(enc)
	if err != nil || got != "PRS-0001" {
		t.Errorf("OpenString = %q, %v", got, err)
	}
	if _, err := k.OpenString("!!!not-base64!!!"); err == nil {
		t.Error("OpenString accepted non-base64 input")
	}
}

func TestPseudonymProperties(t *testing.T) {
	k := testKeyring(t)
	a := k.Pseudonym("PRS-0001")
	if a != k.Pseudonym("PRS-0001") {
		t.Error("pseudonym not deterministic")
	}
	if a == k.Pseudonym("PRS-0002") {
		t.Error("distinct ids collide")
	}
	if strings.Contains(a, "PRS") {
		t.Error("pseudonym leaks identifier")
	}
	if len(a) == 0 || len(a) > 32 {
		t.Errorf("pseudonym has unexpected length %d", len(a))
	}
}

func TestQuickSealOpenIdentity(t *testing.T) {
	k := testKeyring(t)
	f := func(msg []byte) bool {
		sealed, err := k.Seal(msg)
		if err != nil {
			return false
		}
		pt, err := k.Open(sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickPseudonymInjectiveOnSamples(t *testing.T) {
	k := testKeyring(t)
	seen := map[string]string{}
	f := func(id string) bool {
		p := k.Pseudonym(id)
		if prev, ok := seen[p]; ok && prev != id {
			return false // collision between distinct ids
		}
		seen[p] = id
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
