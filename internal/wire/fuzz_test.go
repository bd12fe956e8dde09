package wire

import (
	"bytes"
	"testing"

	"repro/internal/guid"
)

// FuzzParse throws arbitrary bytes at the message parser: it must never
// panic, and whatever it accepts must re-encode to something it accepts
// again (decode/encode/decode equivalence on the header and payload type).
func FuzzParse(f *testing.F) {
	g := guid.NewSource(1, 2)
	seeds := [][]byte{
		AppendEnvelope(nil, NewEnvelope(g.Next(), 7, &Ping{})),
		AppendEnvelope(nil, NewEnvelope(g.Next(), 6, &Query{SearchText: "blue mountain"})),
		AppendEnvelope(nil, NewEnvelope(g.Next(), 5, &Query{
			SearchText: "", Extensions: []string{"urn:sha1:ABCDEF"},
		})),
		AppendEnvelope(nil, NewEnvelope(g.Next(), 4, &Pong{SharedFiles: 9})),
		AppendEnvelope(nil, NewEnvelope(g.Next(), 3, &QueryHit{
			Results: []HitResult{{FileIndex: 1, FileSize: 2, FileName: "x.mp3"}},
			Servent: g.Next(),
		})),
		AppendEnvelope(nil, NewEnvelope(g.Next(), 2, &Bye{Code: 200, Reason: "bye"})),
		{0x00, 0x01, 0x02},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		env, n, err := p.Parse(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Re-encode and re-parse: the header and payload type must agree.
		re := AppendEnvelope(nil, Clone(env))
		var p2 Parser
		env2, _, err := p2.Parse(re)
		if err != nil {
			t.Fatalf("re-parse of re-encoded message failed: %v", err)
		}
		if env2.Header.GUID != env.Header.GUID || env2.Header.Type != env.Header.Type {
			t.Fatalf("header changed across re-encode: %+v vs %+v", env.Header, env2.Header)
		}
	})
}

// FuzzKeywordKey checks the canonicalization invariants on arbitrary
// input: agreement with the reference definition, idempotence,
// insensitivity to leading/trailing whitespace, and AppendKeywordKey
// appending exactly KeywordKey's result after what its buffer holds.
func FuzzKeywordKey(f *testing.F) {
	for _, s := range []string{"", "a b", "B a", "  padded  ", "ümlaut ÜMLAUT", "x\ty\nz",
		"b a b", "a\u00a0b", "i h g f e d c b a", "Blue MOUNTAIN blue", "j i h g f e d c b a j",
		"dimu dimu dimu", "bakelo ", "ä b ä"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k := KeywordKey(s)
		if ref := referenceKeywordKey(s); k != ref {
			t.Fatalf("KeywordKey(%q) = %q, reference says %q", s, k, ref)
		}
		if got := AppendKeywordKey([]byte("held|"), s); string(got) != "held|"+k {
			t.Fatalf("AppendKeywordKey(%q) appended %q, KeywordKey says %q", s, got[len("held|"):], k)
		}
		if KeywordKey(k) != k {
			t.Fatalf("not idempotent: %q → %q → %q", s, k, KeywordKey(k))
		}
		if KeywordKey(" "+s+" ") != k {
			t.Fatalf("whitespace-sensitive: %q", s)
		}
	})
}

// FuzzStreamReader feeds arbitrary byte streams to the framed reader.
func FuzzStreamReader(f *testing.F) {
	g := guid.NewSource(3, 4)
	ok := AppendEnvelope(nil, NewEnvelope(g.Next(), 6, &Query{SearchText: "seed"}))
	f.Add(ok)
	f.Add([]byte("GNUTELLA garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		r := bytes.NewReader(data)
		for i := 0; i < 16; i++ { // bounded: the reader must terminate
			if _, err := p.ReadMessage(r); err != nil {
				return
			}
		}
	})
}
