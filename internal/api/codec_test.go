package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// taxonomyBodies are the shapes the decoders must decline or get
// exactly right: trailing data, a body over the limit, a case-variant
// key, null, an escaped line separator, a lone surrogate escape,
// invalid UTF-8 and a duplicate key.
var taxonomyBodies = []string{
	`{"tx":"t1"} {"tx":"t2"}`,
	oversizedBody,
	`{"TX":"t1"}`,
	`null`,
	escapedLineSeparator,
	`{"tx":"\ud800"}`,
	"{\"tx\":\"\xff\"}",
	`{"tx":"a","tx":"b"}`,
}

var (
	oversizedBody        = `{"tx":"` + strings.Repeat("a", MaxBody) + `"}`
	escapedLineSeparator = `{"tx":"a\u2028b"}`
)

// canonical bodies, as the v1 plane sends them on every commit.
var (
	commitRequestBody = `{"variant":"pa","ops":[` +
		`{"key":"k1","op":"put","value":"v1"},` +
		`{"key":"k2","op":"put","value":"v2"},` +
		`{"key":"k3","op":"put","value":"v3"}]}`
	commitResponseBody = `{"tx":"A.1760000000000000000.7","outcome":"committed","variant":"PA",` +
		`"coordinator":"A","participants":["B","C"],"reads":{"k":"v"},"latency_ms":0.512,` +
		`"cost":{"flows":8,"log_writes":7,"forced_writes":5}}`
	stageRequestBody = `{"tx":"A.1760000000000000000.7","variant":"PA",` +
		`"ops":[{"key":"k2","op":"put","value":"v2"}]}`
	stageResponseBody = `{"tx":"A.1760000000000000000.7","vote":"yes"}`
)

// encodeCase pairs a value with the encoder under test.
type encodeCase struct {
	v      any
	encode func() ([]byte, error)
}

func encodeCases(reqs []CommitRequest, resps []CommitResponse, sreqs []StageRequest, sresps []StageResponse) []encodeCase {
	var cases []encodeCase
	for i := range reqs {
		r := &reqs[i]
		cases = append(cases, encodeCase{r, func() ([]byte, error) { return appendCommitRequest(nil, r), nil }})
	}
	for i := range resps {
		r := &resps[i]
		cases = append(cases, encodeCase{r, func() ([]byte, error) { return appendCommitResponse(nil, r) }})
	}
	for i := range sreqs {
		r := &sreqs[i]
		cases = append(cases, encodeCase{r, func() ([]byte, error) { return appendStageRequest(nil, r), nil }})
	}
	for i := range sresps {
		r := &sresps[i]
		cases = append(cases, encodeCase{r, func() ([]byte, error) { return appendStageResponse(nil, r), nil }})
	}
	return cases
}

// checkEncode holds an encoder to json.Marshal's bytes and error, and
// holds the fast decoder to accepting what it wrote.
func checkEncode(t *testing.T, c encodeCase) {
	t.Helper()
	want, wantErr := json.Marshal(c.v)
	got, err := c.encode()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%#v: encode error %v, json.Marshal's %v", c.v, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%#v:\nencoded %s\nMarshal %s", c.v, got, want)
	}
	if !decodeAgrees(t, got, reflect.TypeOf(c.v).Elem()) {
		t.Fatalf("fast path declined its own encoding %s", got)
	}
}

// decodeAgrees runs the fast decoder for typ on body: it must decline,
// or yield what json.Unmarshal yields into a zero value. It reports
// whether the fast path accepted.
func decodeAgrees(t *testing.T, body []byte, typ reflect.Type) bool {
	t.Helper()
	switch typ {
	case reflect.TypeOf(CommitRequest{}):
		return agree(t, body, decodeCommitRequest)
	case reflect.TypeOf(CommitResponse{}):
		return agree(t, body, decodeCommitResponse)
	case reflect.TypeOf(StageRequest{}):
		return agree(t, body, decodeStageRequest)
	case reflect.TypeOf(StageResponse{}):
		return agree(t, body, decodeStageResponse)
	}
	t.Fatalf("no fast decoder for %v", typ)
	return false
}

func agree[T any](t *testing.T, body []byte, decode func([]byte, *T) bool) bool {
	t.Helper()
	var fast, ref T
	if !decode(body, &fast) {
		return false
	}
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("fast path accepted %q, which json.Unmarshal rejects: %v", body, err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("%q:\nfast path %#v\nUnmarshal %#v", body, fast, ref)
	}
	return true
}

// valuesFrom builds one value of each body type from fuzz inputs: the
// parts of s as keys, values, names and verbs, lat as the latency and
// n choosing the optional fields.
func valuesFrom(s string, lat float64, n int) ([]CommitRequest, []CommitResponse, []StageRequest, []StageResponse) {
	parts := strings.Split(s, "|")
	if len(parts) > 8 {
		parts = parts[:8]
	}
	at := func(i int) string { return parts[i%len(parts)] }
	var ops []Op
	reads := map[string]string{}
	for i := range parts {
		ops = append(ops, Op{Key: at(i), Op: OpKind(at(i + 1)), Value: at(i + 2)})
		reads[at(i)] = at(i + 1)
	}
	var participants []string
	switch n % 3 {
	case 1:
		participants = []string{}
	case 2:
		participants = parts
	}
	var cost *CostSummary
	if n%2 == 0 {
		cost = &CostSummary{Flows: n, LogWrites: -n, ForcedWrites: n / 7}
	}
	return []CommitRequest{
			{},
			{Tx: at(0), Variant: at(1), Ops: ops},
		}, []CommitResponse{
			{},
			{Tx: at(0), Outcome: at(1), Variant: at(2), Coordinator: at(3), Participants: participants,
				Reads: reads, Abort: at(4), LatencyMS: lat, Cost: cost},
		}, []StageRequest{
			{},
			{Tx: at(0), Variant: at(1), Ops: ops, Abort: n%2 == 1},
		}, []StageResponse{
			{},
			{Tx: at(0), Vote: at(1), Reads: reads},
		}
}

// TestV1EncodersMatchMarshal: each encoder writes json.Marshal's bytes,
// escapes, float forms and the NaN and infinity errors included, and
// the fast decoders accept every body the encoders write.
func TestV1EncodersMatchMarshal(t *testing.T) {
	strs := []string{
		"plain|k|v",
		"<a href=\"x\">&amp;</a>|\\|\x00\x01\x1f\x7f",
		"\b\f\n\r\t|line\u2028sep\u2029|é中😀",
		"bad\xffutf8|\xed\xa0\x80|\xc3",
		"get|put|delete|committed|aborted|in-doubt|PA",
		"yes|read-only|no|Basic2PC",
	}
	lats := []float64{0, 0.512, 1e-7, 123456.789, 1e21, 1e20, -3.5e-9, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i, s := range strs {
		for j, lat := range lats {
			for _, c := range encodeCases(valuesFrom(s, lat, i+j)) {
				checkEncode(t, c)
			}
		}
	}
}

// TestV1DecodersAgree: canonical bodies take the fast path; the
// taxonomy bodies and other shapes the encoders never write are
// declined or decoded exactly as json.Unmarshal decodes them.
func TestV1DecodersAgree(t *testing.T) {
	types := []reflect.Type{reflect.TypeOf(CommitRequest{}), reflect.TypeOf(CommitResponse{}),
		reflect.TypeOf(StageRequest{}), reflect.TypeOf(StageResponse{})}
	for body, typ := range map[string]reflect.Type{
		commitRequestBody:  types[0],
		commitResponseBody: types[1],
		stageRequestBody:   types[2],
		stageResponseBody:  types[3],
	} {
		if !decodeAgrees(t, []byte(body), typ) {
			t.Errorf("%v: fast path declined %s", typ, body)
		}
	}
	declined := append([]string{
		`{"tx":"t","participants":null,"ops":null}`,
		`{"latency_ms":1e400}`,
		`{"cost":{"flows":1.0}}`,
		`{"tx":1}`,
		`{"tx":"t",}`,
		`{"t\u0078":"t"}`,
		`{"unknown":"x"}`,
		`{"ops":[null]}`,
	}, taxonomyBodies...)
	for _, body := range declined {
		for _, typ := range types {
			// The encoders write an escaped U+2028, and the size limit
			// is DecodeBody's, not the decoders'.
			if body == escapedLineSeparator || body == oversizedBody {
				if !decodeAgrees(t, []byte(body), typ) {
					t.Errorf("%v: fast path declined %.80q", typ, body)
				}
				continue
			}
			if decodeAgrees(t, []byte(body), typ) {
				t.Errorf("%v: fast path accepted %.80q", typ, body)
			}
		}
	}
}

// TestUnmarshalDeclinedFromZero: a body the fast path declines is
// decoded by json.Unmarshal from a zero value, with its error.
func TestUnmarshalDeclinedFromZero(t *testing.T) {
	v := CommitRequest{Tx: "stale", Ops: []Op{{Key: "k", Op: OpGet}}}
	if err := Unmarshal([]byte(`{"Variant":"pa"}`), &v); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, CommitRequest{Variant: "pa"}) {
		t.Fatalf("declined body decoded to %#v", v)
	}
	var ref CommitRequest
	wantErr := json.Unmarshal([]byte(`{"tx":"t1"} {"tx":"t2"}`), &ref)
	if err := Unmarshal([]byte(`{"tx":"t1"} {"tx":"t2"}`), &v); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("trailing data: %v, want json.Unmarshal's %v", err, wantErr)
	}
}

// TestDecodeBodyAllocs holds the fast path's allocations: a 3-put
// commit request costs its op slice and six strings (the verbs and the
// variant are shared constants), and a stage response without reads
// its tx id alone (the vote is a shared constant).
func TestDecodeBodyAllocs(t *testing.T) {
	var rd bytes.Reader
	for _, c := range []struct {
		body string
		v    any
		max  float64
	}{
		{commitRequestBody, new(CommitRequest), 7},
		{stageResponseBody, new(StageResponse), 1},
	} {
		body := []byte(c.body)
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(body)
			if err := DecodeBody(&rd, c.v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("decoding %s: %.0f allocations, want ≤ %.0f", c.body, allocs, c.max)
		}
	}
}

// FuzzV1Bodies is the codec's differential against encoding/json:
// encoding any value gives json.Marshal's bytes, the fast decoders
// either decline arbitrary input or agree with json.Unmarshal, a body
// the encoders wrote is never declined, and DecodeBody keeps its size
// limit and blank-body rules.
func FuzzV1Bodies(f *testing.F) {
	for _, body := range append(taxonomyBodies, commitRequestBody, commitResponseBody, stageRequestBody, stageResponseBody) {
		f.Add([]byte(body), "k|put|v", 0.25, 2)
	}
	f.Add([]byte(`{"ops":[{"key":"a","op":"get"}]}`), "<&>|\u2028|\xff", math.Inf(1), 1)
	f.Fuzz(func(t *testing.T, body []byte, s string, lat float64, n int) {
		for _, typ := range []reflect.Type{reflect.TypeOf(CommitRequest{}), reflect.TypeOf(CommitResponse{}),
			reflect.TypeOf(StageRequest{}), reflect.TypeOf(StageResponse{})} {
			decodeAgrees(t, body, typ)
		}
		for _, c := range encodeCases(valuesFrom(s, lat, n)) {
			checkEncode(t, c)
		}

		var got, ref CommitRequest
		err := DecodeBody(bytes.NewReader(body), &got)
		switch {
		case len(body) > MaxBody:
			if !errors.Is(err, ErrBodyTooLarge) {
				t.Fatalf("body of %d bytes: %v, want ErrBodyTooLarge", len(body), err)
			}
		case len(bytes.TrimSpace(body)) == 0:
			if err != io.EOF {
				t.Fatalf("blank body: %v, want io.EOF", err)
			}
		default:
			refErr := json.Unmarshal(body, &ref)
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("DecodeBody error %v, json.Unmarshal's %v", err, refErr)
			}
			if err == nil && !reflect.DeepEqual(got, ref) {
				t.Fatalf("DecodeBody %#v, json.Unmarshal %#v", got, ref)
			}
		}
	})
}
