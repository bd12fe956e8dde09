package wire

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// KeywordKey canonicalizes a query's search text into its keyword-set
// identity. The Gnutella protocol treats two queries as identical when they
// contain the same set of keywords, regardless of order, case or
// repetition; the paper uses this definition both for filter rule 2
// (duplicate query strings within a session) and for counting distinct
// queries in the popularity analysis.
//
// The key is the sorted, deduplicated, lower-cased keyword set joined by
// single spaces. An empty or whitespace-only search text yields "".
// Text that already is its key is returned as is; any other costs one
// exact-size allocation. A key longer than 64 bytes is built on the heap,
// one allocation more.
func KeywordKey(searchText string) string {
	var buf [64]byte
	key := AppendKeywordKey(buf[:0], searchText)
	if string(key) == searchText {
		return searchText
	}
	return string(key)
}

// AppendKeywordKey appends the KeywordKey of searchText to dst and returns
// the extended buffer. For ASCII text without upper case and with at most
// maxFastFields keywords — every query the vocabulary generates — it
// allocates nothing beyond dst's growth, so a caller that keeps one
// buffer can look a key up in a map (m[string(key)], which Go does not
// allocate for) and pay for the key's string only when it inserts it.
func AppendKeywordKey(dst []byte, searchText string) []byte {
	if out, ok := appendASCIIKey(dst, searchText); ok {
		return out
	}
	fields := strings.Fields(strings.ToLower(searchText))
	if len(fields) == 0 {
		return dst
	}
	sort.Strings(fields)
	dst = append(dst, fields[0]...)
	for i, f := range fields[1:] {
		if f != fields[i] {
			dst = append(dst, ' ')
			dst = append(dst, f...)
		}
	}
	return dst
}

// maxFastFields bounds the keywords appendASCIIKey sorts in place.
const maxFastFields = 8

// appendASCIIKey is AppendKeywordKey for ASCII text without upper case and
// with at most maxFastFields keywords, and reports false, with dst
// untouched, for anything else.
func appendASCIIKey(dst []byte, s string) ([]byte, bool) {
	var fields [maxFastFields]string
	n := 0
	canonical := true // single ' ' separators, strictly ascending
	for i := 0; i < len(s); {
		if asciiSpace(s[i]) {
			canonical = canonical && s[i] == ' ' && i > 0 && !asciiSpace(s[i-1])
			i++
			continue
		}
		start := i
		for ; i < len(s) && !asciiSpace(s[i]); i++ {
			if c := s[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
				return dst, false
			}
		}
		if n == maxFastFields {
			return dst, false
		}
		f := s[start:i]
		canonical = canonical && (n == 0 || fields[n-1] < f)
		fields[n] = f
		n++
	}
	if canonical && n > 0 && !asciiSpace(s[len(s)-1]) {
		return append(dst, s...), true
	}
	// Insertion sort, dropping duplicates as they meet.
	m := 0
	for _, f := range fields[:n] {
		j := m
		for j > 0 && fields[j-1] > f {
			j--
		}
		if j > 0 && fields[j-1] == f {
			continue
		}
		copy(fields[j+1:m+1], fields[j:m])
		fields[j] = f
		m++
	}
	for i, f := range fields[:m] {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, f...)
	}
	return dst, true
}

// KeyCounts counts occurrences of keys given as bytes, such as keyword
// keys built by AppendKeywordKey into a reused buffer. A key's string is
// allocated the first time it is counted; counting it again allocates
// nothing. The zero value is ready to use.
type KeyCounts struct {
	index  map[string]int // key → its slot in counts
	counts []int
}

// Add counts one occurrence of key and returns its count so far.
func (k *KeyCounts) Add(key []byte) int {
	i, ok := k.index[string(key)]
	if !ok {
		if k.index == nil {
			k.index = make(map[string]int)
		}
		i = len(k.counts)
		k.index[string(key)] = i
		k.counts = append(k.counts, 0)
	}
	k.counts[i]++
	return k.counts[i]
}

// Reset forgets every key and keeps the storage.
func (k *KeyCounts) Reset() {
	clear(k.index)
	k.counts = k.counts[:0]
}

// asciiSpace reports whether c is one of the ASCII bytes unicode.IsSpace
// accepts, the separators strings.Fields splits on.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

// KeywordKeyOf is a convenience for messages: it returns the canonical
// keyword key of a decoded QUERY payload.
func (q *Query) KeywordKey() string { return KeywordKey(q.SearchText) }
