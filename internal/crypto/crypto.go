// Package crypto provides the cryptographic primitives the data
// controller uses to comply with the privacy regulations: "the
// identifying information of the person specified in the notification is
// stored in encrypted form" (paper §4).
//
// Two primitives are offered:
//
//   - Sealer: authenticated encryption (AES-256-GCM) of person
//     identifiers (and any other identifying value) at rest in the events
//     index;
//   - Pseudonymizer: a deterministic keyed pseudonym (HMAC-SHA-256) of a
//     person identifier, enabling equality search over the encrypted index
//     (find all events of person X) without revealing the identifier.
//
// Both are derived from a single 32-byte master key through domain
// separation, so the sealing key and the pseudonym key are independent.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// KeySize is the size in bytes of the master key.
const KeySize = 32

// ErrDecrypt reports an undecryptable or tampered ciphertext.
var ErrDecrypt = errors.New("crypto: message authentication failed")

// Keyring holds the derived keys of one data controller deployment.
type Keyring struct {
	aead    cipher.AEAD
	pseuKey []byte
	// hmacPool recycles *pseudonymState for Pseudonym.
	hmacPool sync.Pool
}

// pseudonymState is a pooled HMAC with the input and digest buffers a
// Pseudonym call hands it: passed through the hash.Hash interface, a
// buffer on the stack would escape and cost an allocation each call.
type pseudonymState struct {
	mac hash.Hash
	in  []byte
	sum [sha256.Size]byte
}

// NewKeyring derives the sealing and pseudonym keys from a master key.
func NewKeyring(master []byte) (*Keyring, error) {
	if len(master) != KeySize {
		return nil, fmt.Errorf("crypto: master key must be %d bytes, got %d", KeySize, len(master))
	}
	sealKey := derive(master, "css/seal/v1")
	pseuKey := derive(master, "css/pseudonym/v1")
	block, err := aes.NewCipher(sealKey)
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	k := &Keyring{aead: aead, pseuKey: pseuKey}
	k.hmacPool.New = func() any { return &pseudonymState{mac: hmac.New(sha256.New, k.pseuKey)} }
	return k, nil
}

// NewRandomKeyring generates a fresh random master key and returns the
// keyring along with the key (so it can be persisted by the operator).
func NewRandomKeyring() (*Keyring, []byte, error) {
	master := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, master); err != nil {
		return nil, nil, fmt.Errorf("crypto: generate key: %w", err)
	}
	k, err := NewKeyring(master)
	if err != nil {
		return nil, nil, err
	}
	return k, master, nil
}

// derive computes HMAC-SHA-256(master, label) for domain separation.
func derive(master []byte, label string) []byte {
	m := hmac.New(sha256.New, master)
	m.Write([]byte(label))
	return m.Sum(nil)
}

// Seal encrypts plaintext with a fresh random nonce. The result is
// nonce‖ciphertext‖tag and is safe to store or transmit. The buffer is
// sized for the whole sealed message up front so the AEAD appends in
// place instead of reallocating.
func (k *Keyring) Seal(plaintext []byte) ([]byte, error) {
	ns := k.aead.NonceSize()
	nonce := make([]byte, ns, ns+len(plaintext)+k.aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("crypto: nonce: %w", err)
	}
	return k.aead.Seal(nonce, nonce, plaintext, nil), nil
}

// Open decrypts a value produced by Seal.
func (k *Keyring) Open(sealed []byte) ([]byte, error) {
	ns := k.aead.NonceSize()
	if len(sealed) < ns+k.aead.Overhead() {
		return nil, ErrDecrypt
	}
	pt, err := k.aead.Open(nil, sealed[:ns], sealed[ns:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SealString encrypts a string and encodes the result in URL-safe base64
// so it can live inside XML attributes and store keys.
func (k *Keyring) SealString(s string) (string, error) {
	sealed, err := k.Seal([]byte(s))
	if err != nil {
		return "", err
	}
	return base64.URLEncoding.EncodeToString(sealed), nil
}

// OpenString reverses SealString.
func (k *Keyring) OpenString(s string) (string, error) {
	sealed, err := base64.URLEncoding.DecodeString(s)
	if err != nil {
		return "", ErrDecrypt
	}
	pt, err := k.Open(sealed)
	if err != nil {
		return "", err
	}
	return string(pt), nil
}

// Pseudonym returns the deterministic keyed pseudonym of a person
// identifier: equal identifiers map to equal pseudonyms (enabling index
// lookups), while the identifier cannot be recovered without the key.
// The HMAC state and its buffers are pooled: one pseudonym runs per
// published notification, and a fresh HMAC-SHA-256 costs several
// allocations that Reset makes recoverable. The returned string is the
// call's one allocation.
func (k *Keyring) Pseudonym(personID string) string {
	st := k.hmacPool.Get().(*pseudonymState)
	st.mac.Reset()
	st.in = append(st.in[:0], personID...)
	st.mac.Write(st.in)
	st.mac.Sum(st.sum[:0])
	var out [24]byte // base64 of 18 digest bytes
	base64.URLEncoding.Encode(out[:], st.sum[:18])
	k.hmacPool.Put(st)
	return string(out[:])
}
