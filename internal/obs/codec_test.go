package obs

import (
	"bytes"
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
