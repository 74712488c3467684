package obs

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

// The trace wire format is the decision log's (codec.go): one JSON
// object per span, one span per line (NDJSON), canonical encoding (fixed
// field order, zero-valued optional fields omitted) and strict decoding
// (unknown fields, trailing data and unknown span kinds are errors). The
// encoder is written by hand, not by encoding/json: the tracer writes a
// line per sampled record, up to every record at 1000 permille, so the
// drainer encodes into one reused buffer at zero allocations.

// AppendSpan appends the canonical JSON encoding of r to dst and returns
// the extended buffer. It allocates only when dst needs to grow, so the
// drainer reusing one buffer encodes at zero steady-state allocations.
func AppendSpan(dst []byte, r *SpanRecord) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"trace":`...)
	dst = strconv.AppendUint(dst, r.Trace, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, r.Kind.String())
	if r.Bolt != "" {
		dst = append(dst, `,"bolt":`...)
		dst = appendJSONString(dst, r.Bolt)
	}
	if r.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendJSONString(dst, r.Tenant)
	}
	if r.Task != 0 {
		dst = append(dst, `,"task":`...)
		dst = strconv.AppendInt(dst, int64(r.Task), 10)
	}
	if r.Remote {
		dst = append(dst, `,"remote":true`...)
	}
	if r.StartNS != 0 {
		dst = append(dst, `,"start":`...)
		dst = strconv.AppendInt(dst, r.StartNS, 10)
	}
	if r.DurNS != 0 {
		dst = append(dst, `,"dur":`...)
		dst = strconv.AppendInt(dst, r.DurNS, 10)
	}
	return append(dst, '}')
}

// hexDigits spells the low nibble of a \u00XX control escape.
const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping the
// quote, backslash and control characters and replacing invalid UTF-8
// with U+FFFD — matching what encoding/json produces on decode, so a
// decoded span re-encodes canonically.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				dst = append(dst, '\\', '"')
			case c == '\\':
				dst = append(dst, '\\', '\\')
			case c == '\n':
				dst = append(dst, '\\', 'n')
			case c == '\r':
				dst = append(dst, '\\', 'r')
			case c == '\t':
				dst = append(dst, '\\', 't')
			case c < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				dst = append(dst, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

// wireSpan is the decode shadow of SpanRecord: same fields, JSON tags
// matching the canonical encoder, kind as its wire name.
type wireSpan struct {
	Seq     uint64 `json:"seq"`
	Trace   uint64 `json:"trace"`
	Kind    string `json:"kind"`
	Bolt    string `json:"bolt"`
	Tenant  string `json:"tenant"`
	Task    int    `json:"task"`
	Remote  bool   `json:"remote"`
	StartNS int64  `json:"start"`
	DurNS   int64  `json:"dur"`
}

// ParseSpan decodes one canonical JSON span line. Unknown fields,
// malformed JSON, trailing data and unknown span kind names are errors;
// a successful parse re-encodes (AppendSpan) to a stable canonical form.
//
//checkdoc:testonly strict decoder: FuzzTraceRecord round-trips the wire format through it
func ParseSpan(line []byte) (SpanRecord, error) {
	var w wireSpan
	if err := decodeStrict(line, "span", &w); err != nil {
		return SpanRecord{}, err
	}
	kind, ok := SpanKindFromString(w.Kind)
	if !ok {
		return SpanRecord{}, fmt.Errorf("obs: parse span: unknown kind %q", w.Kind)
	}
	return SpanRecord{
		Seq: w.Seq, Trace: w.Trace, Kind: kind,
		Bolt: w.Bolt, Tenant: w.Tenant, Task: w.Task,
		Remote: w.Remote, StartNS: w.StartNS, DurNS: w.DurNS,
	}, nil
}
