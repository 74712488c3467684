package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// The decision-log wire format is one JSON object per record, one record
// per line (NDJSON), written by encoding/json from Record's tags: fields
// in declaration order, zero-valued optional fields omitted, numbers the
// shortest spelling that round-trips, no HTML escaping. Decoding is
// strict — unknown fields and unknown kinds are errors — so a corrupted
// or foreign line fails loudly instead of producing a half-parsed record.
// The log writes about one line per control round, so the standard
// encoder's three allocations a record cost nothing that shows; the
// tracer, which writes a line per sampled tuple, keeps a hand encoder
// (tracecodec.go).

// AppendRecord appends the canonical JSON encoding of r, without a
// newline, to dst and returns the extended buffer.
func AppendRecord(dst []byte, r *Record) []byte {
	b := bytes.NewBuffer(dst)
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(finite(*r)); err != nil {
		panic(err) // unreachable: every float is finite and Kind always marshals
	}
	return bytes.TrimSuffix(b.Bytes(), []byte{'\n'})
}

// finite returns r with every float spelt as JSON can: ±Inf clamps to
// ±MaxFloat64 and NaN becomes 0 (omitted), so every record is one line
// ParseRecord accepts. json.Encoder refuses a non-finite float, and one
// does arrive: queueing.MarginalBenefit is +Inf when one more server
// stabilises an unstable operator, so a preemption whose claimant's
// GrowBenefit (a max over those) is +Inf carries Gain = +Inf.
func finite(r Record) Record {
	for _, f := range [...]*float64{&r.Gain, &r.Loss, &r.Lambda0, &r.PeerLambda0, &r.Fraction, &r.Rate} {
		if math.IsNaN(*f) {
			*f = 0
		}
		*f = max(-math.MaxFloat64, min(*f, math.MaxFloat64))
	}
	return r
}

// decodeStrict is the strict-decode prologue both wire formats share:
// exactly one JSON object per line, decoded into v. Unknown fields,
// malformed JSON and anything but whitespace after the object are errors
// naming what ("record", "span") failed to parse.
func decodeStrict(line []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("obs: parse %s: %w", what, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("obs: parse %s: trailing data after object", what)
	}
	return nil
}

// ParseRecord decodes one canonical JSON record line. Unknown fields,
// malformed JSON, trailing data, a missing kind and unknown kind names
// are errors; a successful parse re-encodes (AppendRecord) to a stable
// canonical form.
//
//checkdoc:testonly strict decoder: FuzzDecisionRecord round-trips the wire format through it
func ParseRecord(line []byte) (Record, error) {
	var r Record
	if err := decodeStrict(line, "record", &r); err != nil {
		return Record{}, err
	}
	if r.Kind == KindInvalid {
		return Record{}, errors.New("obs: parse record: no kind")
	}
	return r, nil
}
