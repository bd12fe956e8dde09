package wire

import (
	"testing"

	"repro/internal/guid"
)

func BenchmarkWireEncodeQuery(b *testing.B) {
	g := guid.NewSource(1, 1)
	env := NewEnvelope(g.Next(), 6, &Query{SearchText: "blue mountain song mp3"})
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEnvelope(buf[:0], env)
	}
	if len(buf) == 0 {
		b.Fatal("no bytes")
	}
}

func BenchmarkWireDecodeQuery(b *testing.B) {
	g := guid.NewSource(1, 1)
	buf := AppendEnvelope(nil, NewEnvelope(g.Next(), 6, &Query{SearchText: "blue mountain song mp3"}))
	var p Parser
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeywordKey measures the canonical keyword-set key every hop-1
// query is ranked and counted by: mixed-case text with a repeat (the
// general path), and the vocabulary's shape — lower case, one to three
// words — on the ASCII fast path.
func BenchmarkKeywordKey(b *testing.B) {
	for _, bc := range []struct{ name, text string }{
		{"mixed", "Blue MOUNTAIN blue song mp3"},
		{"vocab", "sotavi bakelo dimu"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if KeywordKey(bc.text) == "" {
					b.Fatal("empty key")
				}
			}
		})
	}
}
