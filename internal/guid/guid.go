// Package guid implements the 16-byte globally unique identifiers used by
// the Gnutella protocol to tag messages and servents.
//
// Gnutella GUIDs are not RFC 4122 UUIDs: by convention (GnutellaDevForum,
// "Gnutella 0.6"), byte 8 is 0xFF to mark a "new" GUID and byte 15 is 0x00,
// reserved for future use. The remaining 14 bytes carry entropy. GUIDs are
// comparable and usable as map keys, which the overlay routing tables rely
// on.
package guid

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
)

// Size is the wire size of a GUID in bytes.
const Size = 16

// GUID is a Gnutella global unique identifier. The zero value is the nil
// GUID, which is never produced by a Source and can be used as a sentinel.
type GUID [Size]byte

// Nil is the zero GUID.
var Nil GUID

// ErrBadLength reports a byte slice of the wrong size passed to FromBytes.
var ErrBadLength = errors.New("guid: not 16 bytes")

// ErrBadEncoding reports a malformed hexadecimal string passed to Parse.
var ErrBadEncoding = errors.New("guid: invalid hex encoding")

// String returns the canonical lower-case hexadecimal form, 32 characters
// with no separators, matching what Gnutella developer tools print.
func (g GUID) String() string {
	return hex.EncodeToString(g[:])
}

// Bytes returns a copy of the GUID as a fresh 16-byte slice.
func (g GUID) Bytes() []byte {
	b := make([]byte, Size)
	copy(b, g[:])
	return b
}

// Marker reports whether the GUID carries the modern-servent markers
// (byte 8 == 0xFF, byte 15 == 0x00) described in the v0.6 specification.
func (g GUID) Marker() bool {
	return g[8] == 0xFF && g[15] == 0x00
}

// FromBytes converts a 16-byte slice into a GUID.
func FromBytes(b []byte) (GUID, error) {
	var g GUID
	if len(b) != Size {
		return Nil, fmt.Errorf("%w: got %d", ErrBadLength, len(b))
	}
	copy(g[:], b)
	return g, nil
}

// Parse decodes the 32-character hexadecimal form produced by String.
func Parse(s string) (GUID, error) {
	if len(s) != Size*2 {
		return Nil, fmt.Errorf("%w: got %d characters", ErrBadEncoding, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return FromBytes(b)
}

// Uint64 folds the GUID's 14 entropy bytes into one word (the marker
// bytes 8 and 15 are constant by convention and carry no entropy). It is
// the hash key of Shard.
func (g GUID) Uint64() uint64 {
	var a, b uint64
	for i := 0; i < 8; i++ {
		a |= uint64(g[i]) << (8 * i)
	}
	for i := 9; i < 15; i++ {
		b |= uint64(g[i]) << (8 * (i - 9))
	}
	// SplitMix64-style finalization so low-entropy GUIDs still spread.
	x := a ^ (b * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shard maps the GUID onto one of n buckets with the jump consistent hash
// (Lamping & Veach, "A Fast, Minimal Memory, Consistent Hash Algorithm").
// The assignment is consistent: growing n from k to k+1 moves only ≈1/(k+1)
// of the keys, so a measurement fleet can add vantage nodes without
// reshuffling which node observes which session. n ≤ 1 always returns 0.
func (g GUID) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	key := g.Uint64()
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Source generates GUIDs from a deterministic random stream. It is not safe
// for concurrent use; give each goroutine its own Source.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a Source seeded with the two given words. Equal seeds
// yield identical GUID sequences, which the simulator relies on for
// reproducible traces.
func NewSource(seed1, seed2 uint64) *Source {
	return &Source{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Next returns a fresh GUID with the v0.6 marker bytes set.
func (s *Source) Next() GUID {
	var g GUID
	hi, lo := s.rng.Uint64(), s.rng.Uint64()
	for i := 0; i < 8; i++ {
		g[i] = byte(hi >> (8 * i))
		g[8+i] = byte(lo >> (8 * i))
	}
	g[8] = 0xFF
	g[15] = 0x00
	if g == Nil { // astronomically unlikely, but keep the nil sentinel safe
		g[0] = 1
	}
	return g
}
