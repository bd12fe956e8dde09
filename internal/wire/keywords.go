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
func KeywordKey(searchText string) string {
	if key, ok := asciiKeywordKey(searchText); ok {
		return key
	}
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

// maxFastFields bounds the keywords asciiKeywordKey sorts in place.
const maxFastFields = 8

// asciiKeywordKey is KeywordKey for ASCII text without upper case and with
// at most maxFastFields keywords — every query the vocabulary generates —
// and reports false for anything else. Text that already is its key is
// returned as is; any other costs one exact-size allocation.
func asciiKeywordKey(s string) (string, bool) {
	var fields [maxFastFields]string
	n, size := 0, 0
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
				return "", false
			}
		}
		if n == maxFastFields {
			return "", false
		}
		f := s[start:i]
		canonical = canonical && (n == 0 || fields[n-1] < f)
		fields[n] = f
		n++
		size += len(f)
	}
	switch {
	case n == 0:
		return "", true
	case canonical && size+n-1 == len(s):
		return s, true
	}
	// Insertion sort, dropping duplicates as they meet.
	m := 0
	for _, f := range fields[:n] {
		j := m
		for j > 0 && fields[j-1] > f {
			j--
		}
		if j > 0 && fields[j-1] == f {
			size -= len(f)
			continue
		}
		copy(fields[j+1:m+1], fields[j:m])
		fields[j] = f
		m++
	}
	var b strings.Builder
	b.Grow(size + m - 1)
	for i, f := range fields[:m] {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f)
	}
	return b.String(), true
}

// asciiSpace reports whether c is one of the ASCII bytes unicode.IsSpace
// accepts, the separators strings.Fields splits on.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

// KeywordKeyOf is a convenience for messages: it returns the canonical
// keyword key of a decoded QUERY payload.
func (q *Query) KeywordKey() string { return KeywordKey(q.SearchText) }
