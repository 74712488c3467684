package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// The decision-log wire format is one JSON object per record, one record
// per line (NDJSON). Encoding is canonical: fields appear in a fixed
// order, zero-valued optional fields are omitted, numbers use the
// shortest representation that round-trips (strconv 'g' with -1
// precision), and strings escape only what JSON requires. Decoding is
// strict — unknown fields and unknown kinds are errors — so a corrupted
// or foreign line fails loudly instead of producing a half-parsed record.

// AppendRecord appends the canonical JSON encoding of r to dst and
// returns the extended buffer. It allocates only when dst needs to grow,
// so a drainer reusing one buffer encodes at zero steady-state
// allocations.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, r.At, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, r.Kind.String())
	if r.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendJSONString(dst, r.Tenant)
	}
	if r.Peer != "" {
		dst = append(dst, `,"peer":`...)
		dst = appendJSONString(dst, r.Peer)
	}
	if r.From != 0 {
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(r.From), 10)
	}
	if r.To != 0 {
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendInt(dst, int64(r.To), 10)
	}
	dst = appendFloatField(dst, `,"gain":`, r.Gain)
	dst = appendFloatField(dst, `,"loss":`, r.Loss)
	dst = appendFloatField(dst, `,"lambda0":`, r.Lambda0)
	dst = appendFloatField(dst, `,"peer_lambda0":`, r.PeerLambda0)
	dst = appendFloatField(dst, `,"fraction":`, r.Fraction)
	dst = appendFloatField(dst, `,"rate":`, r.Rate)
	if r.PauseNS != 0 {
		dst = append(dst, `,"pause_ns":`...)
		dst = strconv.AppendInt(dst, r.PauseNS, 10)
	}
	if r.Flag {
		dst = append(dst, `,"flag":true`...)
	}
	if r.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, r.Detail)
	}
	return append(dst, '}')
}

// appendFloatField appends `<prefix><value>` unless the value is zero
// (omitted in canonical form). Negative zero is normalized to zero.
func appendFloatField(dst []byte, prefix string, v float64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, prefix...)
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// hexDigits spells the low nibble of a \u00XX control escape.
const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping the
// quote, backslash and control characters and replacing invalid UTF-8
// with U+FFFD — matching what encoding/json produces on decode, so a
// decoded record re-encodes canonically.
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

// wireRecord is the decode shadow of Record: same fields, JSON tags
// matching the canonical encoder, kind as its wire name.
type wireRecord struct {
	Seq         uint64  `json:"seq"`
	At          int64   `json:"at"`
	Kind        string  `json:"kind"`
	Tenant      string  `json:"tenant"`
	Peer        string  `json:"peer"`
	From        int     `json:"from"`
	To          int     `json:"to"`
	Gain        float64 `json:"gain"`
	Loss        float64 `json:"loss"`
	Lambda0     float64 `json:"lambda0"`
	PeerLambda0 float64 `json:"peer_lambda0"`
	Fraction    float64 `json:"fraction"`
	Rate        float64 `json:"rate"`
	PauseNS     int64   `json:"pause_ns"`
	Flag        bool    `json:"flag"`
	Detail      string  `json:"detail"`
}

// decodeStrict is the strict-decode prologue both wire formats share:
// exactly one JSON object per line, decoded into the shadow struct w.
// Unknown fields, malformed JSON and anything but whitespace after the
// object are errors naming what ("record", "span") failed to parse.
func decodeStrict(line []byte, what string, w any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return fmt.Errorf("obs: parse %s: %w", what, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("obs: parse %s: trailing data after object", what)
	}
	return nil
}

// ParseRecord decodes one canonical JSON record line. Unknown fields,
// malformed JSON, trailing data and unknown kind names are errors; a
// successful parse re-encodes (AppendRecord) to a stable canonical form.
//
//checkdoc:testonly strict decoder: FuzzDecisionRecord round-trips the wire format through it
func ParseRecord(line []byte) (Record, error) {
	var w wireRecord
	if err := decodeStrict(line, "record", &w); err != nil {
		return Record{}, err
	}
	kind, ok := KindFromString(w.Kind)
	if !ok {
		return Record{}, fmt.Errorf("obs: parse record: unknown kind %q", w.Kind)
	}
	return Record{
		Seq: w.Seq, At: w.At, Kind: kind,
		Tenant: w.Tenant, Peer: w.Peer,
		From: w.From, To: w.To,
		Gain: w.Gain, Loss: w.Loss,
		Lambda0: w.Lambda0, PeerLambda0: w.PeerLambda0,
		Fraction: w.Fraction, Rate: w.Rate,
		PauseNS: w.PauseNS, Flag: w.Flag, Detail: w.Detail,
	}, nil
}
