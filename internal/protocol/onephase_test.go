package protocol

import (
	"reflect"
	"testing"
)

// TestOnePhaseMetaRoundTrip pins the opc1 payload codec: every field
// combination the protocol actually produces must survive
// Encode/Decode unchanged.
func TestOnePhaseMetaRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   OnePhaseMeta
	}{
		{"empty", OnePhaseMeta{}},
		{"vote-with-redo", OnePhaseMeta{Redo: []byte(`{"k":"v"}`)}},
		{"decision-record", OnePhaseMeta{
			Subs:  []string{"S1", "S2", "S3"},
			Redos: [][]byte{[]byte("alpha"), nil, {0x00, 0xff, 0x0a}},
		}},
		{"decision-no-redos", OnePhaseMeta{Subs: []string{"S1"}, Redos: [][]byte{nil}}},
		{"binary-redo", OnePhaseMeta{Redo: []byte{0, 1, 2, 0xfe, '\n', ' ', '='}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.in.Encode()
			got, err := DecodeOnePhaseMeta(enc)
			if err != nil {
				t.Fatalf("decode %q: %v", enc, err)
			}
			if !reflect.DeepEqual(got, tc.in) {
				t.Fatalf("round trip drift:\n got %+v\nwant %+v\nwire %q", got, tc.in, enc)
			}
		})
	}
}

// TestOnePhaseMetaRejects pins the decoder's error paths: non-opc1
// payloads and malformed fields must error, never panic or misparse.
func TestOnePhaseMetaRejects(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte(""),
		[]byte("paxos n=1"),
		[]byte("opc1 s"),
		[]byte("opc1 r=!!!notb64"),
		[]byte("opc1 d=???"),
		[]byte("opc1x"),
	} {
		if _, err := DecodeOnePhaseMeta(bad); err == nil {
			t.Errorf("DecodeOnePhaseMeta(%q) accepted garbage", bad)
		}
	}
}
