package overlay

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/guid"
	"repro/internal/wire"
)

// BenchmarkOverlayQueryRouting delivers fresh queries to a node with 50
// ultrapeer connections: duplicate check, route insertion and flooding.
func BenchmarkOverlayQueryRouting(b *testing.B) {
	g := guid.NewSource(2, 2)
	node := New(Config{
		Self:  g.Next(),
		Addr:  netip.MustParseAddr("127.0.0.1"),
		Now:   func() time.Duration { return 0 },
		Send:  func(int, wire.Envelope) {},
		GUIDs: g,
	})
	for i := 0; i < 50; i++ {
		node.AddConn(i, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := wire.Envelope{
			Header:  wire.Header{GUID: g.Next(), Type: wire.TypeQuery, TTL: 5, Hops: 1},
			Payload: &wire.Query{SearchText: "bench query"},
		}
		node.Receive(i%50, env)
	}
}
