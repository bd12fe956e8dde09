package wire

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/guid"
)

var guids = guid.NewSource(1, 2)

func roundTrip(t *testing.T, m Message) Envelope {
	t.Helper()
	e := NewEnvelope(guids.Next(), 5, m)
	buf := AppendEnvelope(nil, e)
	var p Parser
	got, n, err := p.Parse(buf)
	if err != nil {
		t.Fatalf("Parse(%v): %v", m.Type(), err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Header.GUID != e.Header.GUID || got.Header.Type != m.Type() ||
		got.Header.TTL != 5 || got.Header.Hops != 0 {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if int(got.Header.PayloadLen) != len(buf)-HeaderSize {
		t.Fatalf("payload length %d, want %d", got.Header.PayloadLen, len(buf)-HeaderSize)
	}
	return got
}

func TestPingRoundTrip(t *testing.T) {
	e := roundTrip(t, &Ping{})
	if _, ok := e.Payload.(*Ping); !ok {
		t.Fatalf("payload type %T", e.Payload)
	}
}

func TestPongRoundTrip(t *testing.T) {
	want := &Pong{
		Port:        6346,
		Addr:        netip.MustParseAddr("66.1.2.3"),
		SharedFiles: 120,
		SharedKB:    345678,
	}
	e := roundTrip(t, want)
	got := e.Payload.(*Pong)
	if *got != *want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	want := &Query{MinSpeed: 64, SearchText: "blue mountain mp3"}
	e := roundTrip(t, want)
	got := e.Payload.(*Query)
	if got.SearchText != want.SearchText || got.MinSpeed != want.MinSpeed {
		t.Fatalf("got %+v", got)
	}
	if got.HasSHA1() {
		t.Error("plain query should not report SHA1")
	}
}

func TestQueryWithExtensions(t *testing.T) {
	want := &Query{
		MinSpeed:   0,
		SearchText: "",
		Extensions: []string{"urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB", "urn:bitprint:X"},
	}
	e := roundTrip(t, want)
	got := e.Payload.(*Query)
	if len(got.Extensions) != 2 {
		t.Fatalf("extensions = %q", got.Extensions)
	}
	if got.Extensions[0] != want.Extensions[0] || got.Extensions[1] != want.Extensions[1] {
		t.Fatalf("extensions = %q", got.Extensions)
	}
	if !got.HasSHA1() {
		t.Error("sha1 URN not detected")
	}
}

func TestQueryHitRoundTrip(t *testing.T) {
	want := &QueryHit{
		Port:  6346,
		Addr:  netip.MustParseAddr("212.5.6.7"),
		Speed: 256,
		Results: []HitResult{
			{FileIndex: 1, FileSize: 4096, FileName: "song one.mp3"},
			{FileIndex: 9, FileSize: 1 << 20, FileName: "movie.avi"},
		},
		Servent: guids.Next(),
	}
	e := roundTrip(t, want)
	got := e.Payload.(*QueryHit)
	if got.Port != want.Port || got.Addr != want.Addr || got.Speed != want.Speed {
		t.Fatalf("fixed fields: %+v", got)
	}
	if len(got.Results) != 2 || got.Results[0] != want.Results[0] || got.Results[1] != want.Results[1] {
		t.Fatalf("results = %+v", got.Results)
	}
	if got.Servent != want.Servent {
		t.Fatal("servent GUID mismatch")
	}
}

func TestPushRoundTrip(t *testing.T) {
	want := &Push{
		Servent:   guids.Next(),
		FileIndex: 42,
		Addr:      netip.MustParseAddr("80.1.2.3"),
		Port:      6347,
	}
	e := roundTrip(t, want)
	got := e.Payload.(*Push)
	if *got != *want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestByeRoundTrip(t *testing.T) {
	want := &Bye{Code: 200, Reason: "shutting down"}
	e := roundTrip(t, want)
	got := e.Payload.(*Bye)
	if *got != *want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestForwarded(t *testing.T) {
	e := NewEnvelope(guids.Next(), 3, &Ping{})
	f, ok := e.Forwarded()
	if !ok || f.Header.TTL != 2 || f.Header.Hops != 1 {
		t.Fatalf("first hop: %+v ok=%v", f.Header, ok)
	}
	f, ok = f.Forwarded()
	if !ok || f.Header.TTL != 1 || f.Header.Hops != 2 {
		t.Fatalf("second hop: %+v ok=%v", f.Header, ok)
	}
	if _, ok = f.Forwarded(); ok {
		t.Fatal("TTL 1 must not forward")
	}
	// Original envelope must be untouched (value semantics).
	if e.Header.TTL != 3 || e.Header.Hops != 0 {
		t.Fatal("Forwarded mutated the original")
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	var h Header
	if err := DecodeHeader(make([]byte, 10), &h); !errors.Is(err, ErrShortHeader) {
		t.Errorf("short: %v", err)
	}
	buf := AppendEnvelope(nil, NewEnvelope(guids.Next(), 1, &Ping{}))
	buf[16] = 0x77 // unknown type
	if err := DecodeHeader(buf, &h); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v", err)
	}
	buf[16] = byte(TypePing)
	buf[22] = 0xFF // huge payload length
	if err := DecodeHeader(buf, &h); !errors.Is(err, ErrPayloadTooBig) {
		t.Errorf("big payload: %v", err)
	}
}

func TestParseShortBuffer(t *testing.T) {
	buf := AppendEnvelope(nil, NewEnvelope(guids.Next(), 1, &Pong{Addr: netip.MustParseAddr("1.2.3.4")}))
	var p Parser
	for i := 0; i < len(buf); i++ {
		if _, n, err := p.Parse(buf[:i]); err != io.ErrShortBuffer || n != 0 {
			t.Fatalf("Parse(%d bytes) = n=%d err=%v, want short buffer", i, n, err)
		}
	}
}

func TestParseStream(t *testing.T) {
	// Several messages back to back in one buffer.
	var buf []byte
	msgs := []Message{
		&Ping{},
		&Query{SearchText: "abc def"},
		&Pong{Port: 1, Addr: netip.MustParseAddr("5.6.7.8"), SharedFiles: 3},
		&Bye{Code: 1, Reason: "x"},
	}
	for _, m := range msgs {
		buf = AppendEnvelope(buf, NewEnvelope(guids.Next(), 2, m))
	}
	var p Parser
	off := 0
	for i, want := range msgs {
		e, n, err := p.Parse(buf[off:])
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if e.Header.Type != want.Type() {
			t.Fatalf("message %d type = %v, want %v", i, e.Header.Type, want.Type())
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d", off, len(buf))
	}
}

func TestReadWriteStream(t *testing.T) {
	var net bytes.Buffer
	var scratch []byte
	var err error
	q := &Query{SearchText: "hello world"}
	scratch, err = WriteTo(&net, NewEnvelope(guids.Next(), 4, q), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = WriteTo(&net, NewEnvelope(guids.Next(), 4, &Ping{}), scratch); err != nil {
		t.Fatal(err)
	}
	var p Parser
	e1, err := p.ReadMessage(&net)
	if err != nil {
		t.Fatal(err)
	}
	if got := e1.Payload.(*Query).SearchText; got != "hello world" {
		t.Fatalf("query text %q", got)
	}
	e2, err := p.ReadMessage(&net)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Header.Type != TypePing {
		t.Fatalf("second message type %v", e2.Header.Type)
	}
	if _, err := p.ReadMessage(&net); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

func TestReadFromTruncatedPayload(t *testing.T) {
	buf := AppendEnvelope(nil, NewEnvelope(guids.Next(), 1, &Query{SearchText: "abc"}))
	var p Parser
	if _, err := p.ReadMessage(bytes.NewReader(buf[:len(buf)-2])); err == nil {
		t.Fatal("truncated payload must fail")
	}
}

func TestParserReuseAndClone(t *testing.T) {
	var p Parser
	buf1 := AppendEnvelope(nil, NewEnvelope(guids.Next(), 1, &Query{SearchText: "first"}))
	buf2 := AppendEnvelope(nil, NewEnvelope(guids.Next(), 1, &Query{SearchText: "second"}))
	e1, _, err := p.Parse(buf1)
	if err != nil {
		t.Fatal(err)
	}
	kept := Clone(e1)
	if _, _, err := p.Parse(buf2); err != nil {
		t.Fatal(err)
	}
	// The aliased payload now shows the second query; the clone keeps the first.
	if e1.Payload.(*Query).SearchText != "second" {
		t.Fatal("expected parser reuse to overwrite aliased payload")
	}
	if kept.Payload.(*Query).SearchText != "first" {
		t.Fatal("clone did not preserve the payload")
	}
}

// referenceKeywordKey is the plain definition of KeywordKey — split on
// Unicode white space, lower-case, sort, deduplicate, join — that the
// ASCII fast path must agree with on every input.
func referenceKeywordKey(searchText string) string {
	fields := strings.Fields(strings.ToLower(searchText))
	if len(fields) == 0 {
		return ""
	}
	sort.Strings(fields)
	out := fields[:1]
	for _, f := range fields[1:] {
		if f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return strings.Join(out, " ")
}

func TestKeywordKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Blue Mountain MP3", "blue mountain mp3"},
		{"mp3   blue BLUE mountain", "blue mountain mp3"},
		{"", ""},
		{"   ", ""},
		{"single", "single"},
		{"b a", "a b"},
		{"a b", "a b"},
		{"  a   b  ", "a b"},
		{"a b ", "a b"},
		{"b\ta\nc\v\f\rd", "a b c d"},
		{"a\tb", "a b"},
		{"b a b a", "a b"},
		{"a a", "a"},
		{"x\u00a0y", "x y"},
		{"x\u0085y", "x y"},
		{"caf\u00e9 bar", "bar caf\u00e9"},
		{"CAF\u00c9 bar", "bar caf\u00e9"},
		{"h g f e d c b a", "a b c d e f g h"},
		{"i h g f e d c b a", "a b c d e f g h i"},
		{"a b c d e f g h i", "a b c d e f g h i"},
		{"a a a a a a a a a b", "a b"},
		{"\xff b", "b \ufffd"},
	}
	for _, c := range cases {
		if got := KeywordKey(c.in); got != c.want {
			t.Errorf("KeywordKey(%q) = %q, want %q", c.in, got, c.want)
		}
		if ref := referenceKeywordKey(c.in); ref != c.want {
			t.Errorf("referenceKeywordKey(%q) = %q, want %q", c.in, ref, c.want)
		}
	}
	q := &Query{SearchText: "Zeta alpha"}
	if q.KeywordKey() != "alpha zeta" {
		t.Errorf("Query.KeywordKey = %q", q.KeywordKey())
	}
}

// TestKeywordKeyAllocs pins the fast path's allocations: none when the
// text already is its key, one when it must be rebuilt.
func TestKeywordKeyAllocs(t *testing.T) {
	for _, c := range []struct {
		in  string
		max float64
	}{
		{"", 0},
		{"bakelo", 0},
		{"bakelo dimu sotavi", 0},
		{"sotavi bakelo dimu", 1},
		{"dimu  dimu bakelo", 1},
	} {
		if got := testing.AllocsPerRun(100, func() { KeywordKey(c.in) }); got > c.max {
			t.Errorf("KeywordKey(%q): %.0f allocations, want at most %.0f", c.in, got, c.max)
		}
	}
}

// TestAppendKeywordKeyHeldKeyAllocatesNothing pins what the callers that
// count or rank keys rely on: building a key into a reused buffer and
// looking it up in a map that already holds it allocates nothing,
// whether the text is its key or must be sorted, deduplicated or
// re-spaced first.
func TestAppendKeywordKeyHeldKeyAllocatesNothing(t *testing.T) {
	held := map[string]int{"bakelo dimu sotavi": 1, "bakelo": 2}
	texts := []string{"bakelo dimu sotavi", "sotavi bakelo dimu", "dimu  sotavi bakelo dimu", " bakelo\t", "bakelo bakelo"}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range texts {
			buf = AppendKeywordKey(buf[:0], s)
			if held[string(buf)] == 0 {
				t.Fatalf("key %q of %q not held", buf, s)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per run of %d held keys, want 0", allocs, len(texts))
	}
}

// Property: any query text round-trips (as long as it has no NUL, which the
// wire format cannot carry).
func TestPropertyQueryRoundTrip(t *testing.T) {
	f := func(text string, speed uint16) bool {
		text = strings.ReplaceAll(text, "\x00", "")
		text = strings.ReplaceAll(text, string(rune(extSep)), "")
		in := &Query{MinSpeed: speed, SearchText: text}
		buf := AppendEnvelope(nil, NewEnvelope(guids.Next(), 1, in))
		var p Parser
		e, _, err := p.Parse(buf)
		if err != nil {
			return false
		}
		out := e.Payload.(*Query)
		return out.SearchText == text && out.MinSpeed == speed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: header round-trips for arbitrary valid field values.
func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(raw [16]byte, ttl, hops uint8) bool {
		h := Header{GUID: guid.GUID(raw), Type: TypeQuery, TTL: ttl, Hops: hops, PayloadLen: 17}
		buf := AppendHeader(nil, h)
		var got Header
		if err := DecodeHeader(buf, &got); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: KeywordKey is idempotent and order-insensitive.
func TestPropertyKeywordKey(t *testing.T) {
	f := func(a, b string) bool {
		k1 := KeywordKey(a + " " + b)
		k2 := KeywordKey(b + " " + a)
		return k1 == k2 && KeywordKey(k1) == k1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
