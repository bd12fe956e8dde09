package guid

import (
	"testing"
	"testing/quick"
)

func TestNilGUID(t *testing.T) {
	var g GUID
	if Nil != g {
		t.Fatal("Nil should equal the zero GUID")
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(1, 2)
	b := NewSource(1, 2)
	for i := 0; i < 100; i++ {
		if ga, gb := a.Next(), b.Next(); ga != gb {
			t.Fatalf("iteration %d: %s != %s", i, ga, gb)
		}
	}
}

func TestSourceDistinctSeeds(t *testing.T) {
	a := NewSource(1, 2).Next()
	b := NewSource(3, 4).Next()
	if a == b {
		t.Fatalf("different seeds produced identical GUID %s", a)
	}
}

func TestNextNeverNilAndMarked(t *testing.T) {
	s := NewSource(7, 7)
	for i := 0; i < 1000; i++ {
		g := s.Next()
		if g == Nil {
			t.Fatal("Next returned nil GUID")
		}
		if !g.Marker() {
			t.Fatalf("GUID %s missing v0.6 marker bytes", g)
		}
	}
}

func TestUniqueness(t *testing.T) {
	s := NewSource(11, 13)
	seen := make(map[GUID]bool, 10000)
	for i := 0; i < 10000; i++ {
		g := s.Next()
		if seen[g] {
			t.Fatalf("duplicate GUID after %d draws: %s", i, g)
		}
		seen[g] = true
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	s := NewSource(5, 9)
	for i := 0; i < 50; i++ {
		g := s.Next()
		got, err := Parse(g.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", g.String(), err)
		}
		if got != g {
			t.Fatalf("round trip mismatch: %s != %s", got, g)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"abc",
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", // bad hex
		"00112233445566778899aabbccddee",   // 30 chars
		"00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff", // 64 chars
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestFromBytes(t *testing.T) {
	b := make([]byte, Size)
	for i := range b {
		b[i] = byte(i)
	}
	g, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if g[i] != byte(i) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if _, err := FromBytes(b[:10]); err == nil {
		t.Fatal("short slice should fail")
	}
	// FromBytes must copy: mutating the source must not change the GUID.
	b[0] = 0xEE
	if g[0] == 0xEE {
		t.Fatal("FromBytes aliased the input slice")
	}
}

func TestBytesCopies(t *testing.T) {
	g := NewSource(2, 3).Next()
	b := g.Bytes()
	b[0] ^= 0xFF
	if g[0] == b[0] {
		t.Fatal("Bytes must return a copy")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw [Size]byte) bool {
		g := GUID(raw)
		got, err := Parse(g.String())
		return err == nil && got == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFromBytesRoundTrip(t *testing.T) {
	f := func(raw [Size]byte) bool {
		g, err := FromBytes(raw[:])
		return err == nil && g == GUID(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
