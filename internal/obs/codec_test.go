package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []Record{
		{Seq: 1, At: 12345, Kind: KindGrant, Tenant: "gold", From: 4, To: 8},
		{Seq: 2, At: -1, Kind: KindPreempt, Tenant: "gold", Peer: "bronze",
			From: 8, To: 6, Gain: 0.5, Loss: 0.3333333333333333,
			Lambda0: 123.456, PeerLambda0: 1e-9, PauseNS: int64(2 * time.Second), Flag: true},
		{Seq: 3, Kind: KindShedPlan, Tenant: "front", Fraction: 0.875, Rate: 1e6, Lambda0: 2e6},
		{Seq: 4, Kind: KindRefit, Tenant: "topo-a", Detail: "grow", From: 2, To: 5, Gain: 0.0125},
		{Seq: 18446744073709551615, At: 9223372036854775807, Kind: KindHeal, Peer: "count"},
		{Seq: 6, Kind: KindWorkerDeath, Peer: `we"ird\name` + "\n\t\x01", To: 3},
		{Seq: 7, Kind: KindSuppress, Tenant: "t", Detail: "cooldown", Gain: -0.5},
	}
	for i, want := range cases {
		enc := AppendRecord(nil, &want)
		got, err := ParseRecord(enc)
		if err != nil {
			t.Fatalf("case %d: parse(%s): %v", i, enc, err)
		}
		if got != want {
			t.Fatalf("case %d round-trip mismatch:\n enc  %s\n got  %+v\n want %+v", i, enc, got, want)
		}
		// Canonical: re-encoding the parsed record is byte-identical.
		enc2 := AppendRecord(nil, &got)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("case %d re-encode not canonical:\n first  %s\n second %s", i, enc, enc2)
		}
	}
}

func TestCodecOmitsZeroFields(t *testing.T) {
	enc := AppendRecord(nil, &Record{Seq: 9, At: 100, Kind: KindGrant, Tenant: "t"})
	want := `{"seq":9,"at":100,"kind":"grant","tenant":"t"}`
	if string(enc) != want {
		t.Fatalf("encoding = %s, want %s", enc, want)
	}
}

// TestCodecWireFormatStable pins the encoding of sample records whose
// floats lie in [1e-4, 1e6), where encoding/json and strconv's shortest
// 'g' spelling agree: these lines are byte-for-byte what the hand-written
// encoder that preceded encoding/json wrote.
func TestCodecWireFormatStable(t *testing.T) {
	cases := []struct {
		rec  Record
		want string
	}{
		{Record{Seq: 1, At: 1700000000123456789, Kind: KindPreempt, Tenant: "gold", Peer: "bronze",
			From: 8, To: 6, Gain: 0.5, Loss: 0.3333333333333333, Lambda0: 123.456,
			PeerLambda0: 0.00012, PauseNS: 2000000000, Flag: true, Detail: "guarded"},
			`{"seq":1,"at":1700000000123456789,"kind":"preempt","tenant":"gold","peer":"bronze","from":8,"to":6,"gain":0.5,"loss":0.3333333333333333,"lambda0":123.456,"peer_lambda0":0.00012,"pause_ns":2000000000,"flag":true,"detail":"guarded"}`},
		{Record{Seq: 2, At: 2, Kind: KindShedPlan, Tenant: "front", From: 12, To: 16,
			Gain: 5120, Loss: 97, Lambda0: 999999.875, Fraction: 0.875, Rate: 180.25, Flag: true},
			`{"seq":2,"at":2,"kind":"shed-plan","tenant":"front","from":12,"to":16,"gain":5120,"loss":97,"lambda0":999999.875,"fraction":0.875,"rate":180.25,"flag":true}`},
		{Record{Seq: 3, At: 3, Kind: KindRefit, Tenant: "topo-a", From: 3, To: 5, Gain: 0.0371, PauseNS: 150000000, Detail: "scale-out"},
			`{"seq":3,"at":3,"kind":"refit","tenant":"topo-a","from":3,"to":5,"gain":0.0371,"pause_ns":150000000,"detail":"scale-out"}`},
		{Record{Seq: 4, At: 4, Kind: KindSuppress, Tenant: "t", Gain: -0.5, Detail: "cooldown"},
			`{"seq":4,"at":4,"kind":"suppress","tenant":"t","gain":-0.5,"detail":"cooldown"}`},
		{Record{Seq: math.MaxUint64, At: math.MinInt64, Kind: KindWorkerDeath, Peer: "w-1", To: -3},
			`{"seq":18446744073709551615,"at":-9223372036854775808,"kind":"worker-death","peer":"w-1","to":-3}`},
		{Record{Seq: 6, At: 6, Kind: KindGrant, Tenant: "gold", From: 4, To: 8, Gain: math.Copysign(0, -1)},
			`{"seq":6,"at":6,"kind":"grant","tenant":"gold","from":4,"to":8}`},
	}
	for _, c := range cases {
		if got := AppendRecord(nil, &c.rec); string(got) != c.want {
			t.Errorf("encoding = %s\nwant       %s", got, c.want)
		}
	}
}

// TestCodecNonFiniteFloats: JSON has no infinity, so a preemption whose
// claimant's GrowBenefit is +Inf (one more server stabilises an unstable
// operator) still writes one line ParseRecord accepts — the gain clamped
// to MaxFloat64 — and a NaN is written as 0, which is omitted.
func TestCodecNonFiniteFloats(t *testing.T) {
	in := Record{Seq: 1, At: 1, Kind: KindPreempt, Tenant: "gold", Peer: "bronze",
		From: 8, To: 6, Gain: math.Inf(1), Loss: math.Inf(-1), Lambda0: math.NaN(), Rate: 3}
	enc := AppendRecord(nil, &in)
	got, err := ParseRecord(enc)
	if err != nil {
		t.Fatalf("ParseRecord(%s): %v", enc, err)
	}
	want := in
	want.Gain, want.Loss, want.Lambda0 = math.MaxFloat64, -math.MaxFloat64, 0
	if got != want {
		t.Fatalf("round trip of %s:\n got  %+v\n want %+v", enc, got, want)
	}
	if bytes.ContainsRune(enc, '\n') {
		t.Fatalf("encoding spans lines: %q", enc)
	}
}

func TestParseRecordRejectsBadInput(t *testing.T) {
	bad := []string{
		``,                                      // empty
		`{`,                                     // truncated
		`[1,2]`,                                 // wrong JSON shape
		`{"seq":1,"kind":"grant"} trailing`,     // trailing garbage
		`{"seq":1,"kind":"grant"}{"seq":2}`,     // two objects on a line
		`{"seq":1,"kind":"no-such-kind"}`,       // unknown kind
		`{"seq":1,"kind":"invalid"}`,            // reserved kind name
		`{"seq":1,"kind":"grant","bogus":1}`,    // unknown field
		`{"seq":-1,"kind":"grant"}`,             // negative uint
		`{"seq":1,"kind":"grant","from":1.5}`,   // non-integer int field
		`{"seq":1,"kind":"grant","gain":1e999}`, // float out of range
	}
	for _, in := range bad {
		if _, err := ParseRecord([]byte(in)); err == nil {
			t.Fatalf("ParseRecord(%q) succeeded, want error", in)
		}
	}
}

// FuzzDecisionRecord is the decode ⇒ canonical re-encode round-trip: any
// input either fails to parse or parses to a record whose re-encoding is
// stable (parses back equal, re-encodes byte-identically). Never panics.
func FuzzDecisionRecord(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"seq":1,"at":12345,"kind":"grant","tenant":"gold","from":4,"to":8}`),
		[]byte(`{"seq":2,"at":1,"kind":"preempt","tenant":"gold","peer":"bronze","from":8,"to":6,"gain":0.5,"loss":0.25,"lambda0":100,"peer_lambda0":50,"pause_ns":1000000000,"flag":true}`),
		[]byte(`{"seq":3,"at":2,"kind":"shed-plan","tenant":"front","fraction":0.75,"rate":1200,"lambda0":1600,"flag":true}`),
		[]byte(`{"seq":4,"at":3,"kind":"refit","tenant":"topo","detail":"grow","gain":0.01}`),
		[]byte(`{"seq":5,"at":4,"kind":"heal","peer":"count","to":2}`),
		[]byte(`{"seq":6,"at":5,"kind":"worker-death","peer":"w-1","to":3}`),
		[]byte(`{"kind":"machine-fail","to":7}`),
		[]byte(`{"seq":1,"kind":"suppress","detail":"é\n\"x\""}`),
		[]byte(`{}`),
		[]byte(`[]`),
		[]byte(`{"seq":1,"kind":"grant","gain":-0}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err := ParseRecord(data)
		if err != nil {
			return // rejection is a valid outcome; panics are not
		}
		enc1 := AppendRecord(nil, &r1)
		r2, err := ParseRecord(enc1)
		if err != nil {
			t.Fatalf("canonical re-encode does not parse: %s: %v", enc1, err)
		}
		if r1 != r2 {
			t.Fatalf("round-trip mismatch:\n in   %q\n r1   %+v\n enc  %s\n r2   %+v", data, r1, enc1, r2)
		}
		enc2 := AppendRecord(nil, &r2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode unstable:\n first  %s\n second %s", enc1, enc2)
		}
	})
}
