package tracing

import (
	"strconv"
	"unicode/utf8"
)

// Attr is one span annotation: a string, or an integer that the sink writes
// itself as the quoted decimal strconv.FormatInt gives, so the record holds
// the same string attribute and the caller formats nothing.
type Attr struct {
	k, v  string
	n     int64
	isInt bool
}

// Int annotates a span with key k and integer value n.
func Int(k string, n int64) Attr { return Attr{k: k, n: n, isInt: true} }

// spanInlineAttrs is how many attributes a span holds without an allocation
// of their own: the engine's richest span, client.call, carries five.
const spanInlineAttrs = 6

// setAttr sets a in as, which is kept sorted by key with each key once — the
// order encoding/json writes a map in. A repeated key overwrites the earlier
// value, as a map assignment does.
func setAttr(as []Attr, a Attr) []Attr {
	i := 0
	for i < len(as) && as[i].k < a.k {
		i++
	}
	if i < len(as) && as[i].k == a.k {
		as[i] = a
		return as
	}
	as = append(as, Attr{})
	copy(as[i+1:], as[i:])
	as[i] = a
	return as
}

// attrsOf sets kv, alternating keys and values, into as. Child and Event
// build their set in an array on their own stack, beside the span: an array
// inside the span would make the span point at itself and move it to the
// heap.
func attrsOf(as []Attr, kv []string) []Attr {
	for i := 0; i+1 < len(kv); i += 2 {
		as = setAttr(as, Attr{k: kv[i], v: kv[i+1]})
	}
	return as
}

// appendRecord appends sp's JSONL record: exactly the bytes json.Marshal
// writes for the exported fields, with the live attribute set in place of
// the Attrs map, and a newline. Hand-encoding keeps the sink from
// allocating per span; FuzzSpanRecord holds it to encoding/json.
func appendRecord(b []byte, sp *Span) []byte {
	b = append(b, `{"trace":`...)
	b = strconv.AppendUint(b, sp.Trace, 10)
	b = append(b, `,"span":`...)
	b = strconv.AppendUint(b, sp.ID, 10)
	if sp.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, sp.Parent, 10)
	}
	b = append(b, `,"name":`...)
	b = appendString(b, sp.Name)
	if sp.Kind != "" {
		b = append(b, `,"kind":`...)
		b = appendString(b, sp.Kind)
	}
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, sp.StartNS, 10)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, sp.DurNS, 10)
	if len(sp.attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range sp.attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, a.k)
			b = append(b, ':')
			if a.isInt {
				b = append(b, '"')
				b = strconv.AppendInt(b, a.n, 10)
				b = append(b, '"')
			} else {
				b = appendString(b, a.v)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// its default HTML escaping: '"' and '\\' and the short control escapes
// backslashed, every other byte below 0x20 and '<', '>', '&' as \u00XX,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8
// as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
