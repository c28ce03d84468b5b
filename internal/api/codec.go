package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The four bodies every commit carries — CommitRequest, CommitResponse,
// StageRequest and StageResponse — are encoded and decoded here by
// hand instead of by encoding/json's reflection. The rule:
//
//   - the encoders write exactly the bytes json.Marshal writes;
//   - the decoders accept every body the encoders can write, and
//     decline anything else (unknown or case-variant keys, duplicate
//     keys, a null the encoders never write, numbers json.Unmarshal
//     would not store, invalid UTF-8, trailing data), which then goes
//     to json.Unmarshal, so every error stays encoding/json's;
//   - no decoded string aliases the body: each is its own copy, or an
//     interned constant for op verbs, outcomes and variant names.
//
// json.Marshal and json.Unmarshal remain the reference the tests and
// FuzzV1Bodies hold these to.

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped as json.Marshal
// escapes it: HTML-sensitive characters and U+2028/U+2029 as \u
// escapes, invalid UTF-8 as \ufffd. Other hand-written encoders that
// must match json.Marshal byte for byte (kvstore's update sets) share
// it.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
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

// appendKey appends an object member's name (given quoted, with its
// colon), after a comma unless the object has just opened.
func appendKey(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(b, key...)
}

func appendOps(b []byte, ops []Op) []byte {
	b = append(b, '[')
	for i := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = AppendString(b, ops[i].Key)
		b = append(b, `,"op":`...)
		b = AppendString(b, string(ops[i].Op))
		if ops[i].Value != "" {
			b = append(b, `,"value":`...)
			b = AppendString(b, ops[i].Value)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendStrings appends a string list; nil is null, as json.Marshal
// writes a nil slice.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// appendReads appends a reads map with its keys sorted, as json.Marshal
// orders map keys.
func appendReads(b []byte, m map[string]string) []byte {
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		b = AppendString(b, m[k])
	}
	return append(b, '}')
}

// appendFloat formats f as json.Marshal formats a float64: like %g,
// with exponents only below 1e-6 and from 1e21, and unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendCommitRequest(b []byte, r *CommitRequest) []byte {
	b = append(b, '{')
	if r.Tx != "" {
		b = AppendString(appendKey(b, `"tx":`), r.Tx)
	}
	if r.Variant != "" {
		b = AppendString(appendKey(b, `"variant":`), r.Variant)
	}
	if len(r.Ops) > 0 {
		b = appendOps(appendKey(b, `"ops":`), r.Ops)
	}
	return append(b, '}')
}

// appendCommitResponse fails, as json.Marshal does, on a latency that
// is NaN or infinite.
func appendCommitResponse(b []byte, r *CommitResponse) ([]byte, error) {
	if math.IsNaN(r.LatencyMS) || math.IsInf(r.LatencyMS, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(r.LatencyMS),
			Str: strconv.FormatFloat(r.LatencyMS, 'g', -1, 64)}
	}
	b = AppendString(append(b, `{"tx":`...), r.Tx)
	b = AppendString(append(b, `,"outcome":`...), r.Outcome)
	b = AppendString(append(b, `,"variant":`...), r.Variant)
	b = AppendString(append(b, `,"coordinator":`...), r.Coordinator)
	b = appendStrings(append(b, `,"participants":`...), r.Participants)
	if len(r.Reads) > 0 {
		b = appendReads(append(b, `,"reads":`...), r.Reads)
	}
	if r.Abort != "" {
		b = AppendString(append(b, `,"abort":`...), r.Abort)
	}
	b = appendFloat(append(b, `,"latency_ms":`...), r.LatencyMS)
	if c := r.Cost; c != nil {
		b = strconv.AppendInt(append(b, `,"cost":{"flows":`...), int64(c.Flows), 10)
		b = strconv.AppendInt(append(b, `,"log_writes":`...), int64(c.LogWrites), 10)
		b = strconv.AppendInt(append(b, `,"forced_writes":`...), int64(c.ForcedWrites), 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendStageRequest(b []byte, r *StageRequest) []byte {
	b = AppendString(append(b, `{"tx":`...), r.Tx)
	if r.Variant != "" {
		b = AppendString(append(b, `,"variant":`...), r.Variant)
	}
	if len(r.Ops) > 0 {
		b = appendOps(append(b, `,"ops":`...), r.Ops)
	}
	if r.Abort {
		b = append(b, `,"abort":true`...)
	}
	return append(b, '}')
}

func appendStageResponse(b []byte, r *StageResponse) []byte {
	b = AppendString(append(b, `{"tx":`...), r.Tx)
	if r.Vote != "" {
		b = AppendString(append(b, `,"vote":`...), r.Vote)
	}
	if len(r.Reads) > 0 {
		b = appendReads(append(b, `,"reads":`...), r.Reads)
	}
	return append(b, '}')
}

// MarshalCommitRequest encodes r as json.Marshal does, into a buffer of
// its own: a request body the transport may re-read after the call.
func MarshalCommitRequest(r *CommitRequest) []byte {
	bp := bodyPool.Get().(*[]byte)
	return detach(bp, appendCommitRequest((*bp)[:0], r))
}

// MarshalStageRequest encodes r as json.Marshal does, into a buffer of
// its own.
func MarshalStageRequest(r *StageRequest) []byte {
	bp := bodyPool.Get().(*[]byte)
	return detach(bp, appendStageRequest((*bp)[:0], r))
}

// WriteCommitResponse writes r to w as json.Encoder.Encode does: the
// bytes of json.Marshal and a newline, or nothing and Marshal's error.
func WriteCommitResponse(w io.Writer, r *CommitResponse) error {
	bp := bodyPool.Get().(*[]byte)
	b, err := appendCommitResponse((*bp)[:0], r)
	if err == nil {
		b = append(b, '\n')
		_, err = w.Write(b)
	}
	putBody(bp, b)
	return err
}

// WriteStageResponse writes r to w as json.Encoder.Encode does.
func WriteStageResponse(w io.Writer, r *StageResponse) error {
	bp := bodyPool.Get().(*[]byte)
	b := append(appendStageResponse((*bp)[:0], r), '\n')
	_, err := w.Write(b)
	putBody(bp, b)
	return err
}

// detach returns an exact-size copy of b, encoded in the pooled buffer
// bp, and puts the buffer back.
func detach(bp *[]byte, b []byte) []byte {
	out := bytes.Clone(b)
	putBody(bp, b)
	return out
}

// Unmarshal is json.Unmarshal with hand-written fast paths for
// *CommitRequest, *CommitResponse, *StageRequest and *StageResponse,
// which it decodes into a zero value, whatever *v held before. A body
// the fast path declines goes to json.Unmarshal, so the result and
// every error are encoding/json's. Any other v goes to json.Unmarshal
// as it is.
func Unmarshal(b []byte, v any) error {
	var ok bool
	switch v := v.(type) {
	case *CommitRequest:
		ok = fastDecode(b, v, decodeCommitRequest)
	case *CommitResponse:
		ok = fastDecode(b, v, decodeCommitResponse)
	case *StageRequest:
		ok = fastDecode(b, v, decodeStageRequest)
	case *StageResponse:
		ok = fastDecode(b, v, decodeStageResponse)
	}
	if ok {
		return nil
	}
	return json.Unmarshal(b, v)
}

// fastDecode runs a fast decoder on a zero *v, and leaves *v zero again
// when it declines.
func fastDecode[T any](b []byte, v *T, decode func([]byte, *T) bool) bool {
	var zero T
	*v = zero
	if decode(b, v) {
		return true
	}
	*v = zero
	return false
}

// decoder is the fast path's cursor over one body. A method that meets
// anything the encoders never write sets bad, and the decode declines.
type decoder struct {
	b   []byte
	i   int
	bad bool
	tmp []byte // unescaping scratch
}

func (d *decoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the next byte after any space, 0 at the end.
func (d *decoder) peek() byte {
	d.skipSpace()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) expect(c byte) {
	if d.peek() != c {
		d.bad = true
		return
	}
	d.i++
}

// literal consumes word if it comes next.
func (d *decoder) literal(word string) bool {
	d.skipSpace()
	if len(d.b)-d.i >= len(word) && string(d.b[d.i:d.i+len(word)]) == word {
		d.i += len(word)
		return true
	}
	return false
}

// more advances past the separator before element n of an array or
// object that closes with end, and reports whether an element follows.
func (d *decoder) more(end byte, n int) bool {
	if d.bad {
		return false
	}
	c := d.peek()
	if c == end {
		d.i++
		return false
	}
	if n > 0 {
		if c != ',' {
			d.bad = true
			return false
		}
		d.i++
	}
	return true
}

// member reads an object member's name and its colon, and marks it in
// seen by bit, the member's place in bits. A name the object does not
// have, one with an escape, or one already seen, declines.
func (d *decoder) member(seen *uint16, bits ...string) (bit uint16) {
	raw, escaped := d.rawString()
	d.expect(':')
	if escaped || d.bad {
		d.bad = true
		return 0
	}
	for i, name := range bits {
		if string(raw) == name {
			bit = 1 << i
			break
		}
	}
	if bit == 0 || *seen&bit != 0 {
		d.bad = true
	}
	*seen |= bit
	return bit
}

// rawString scans a string and returns the bytes between its quotes,
// and whether any is an escape. It declines control characters,
// invalid UTF-8, malformed escapes and \u escapes of surrogates.
func (d *decoder) rawString() (raw []byte, escaped bool) {
	if d.peek() != '"' {
		d.bad = true
		return nil, false
	}
	d.i++
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], escaped
		case c == '\\':
			escaped = true
			if d.i+1 == len(d.b) {
				d.bad = true
				return nil, false
			}
			switch d.b[d.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i += 2
			case 'u':
				if r, ok := hex4(d.b[d.i+2:]); !ok || 0xd800 <= r && r < 0xe000 {
					d.bad = true
					return nil, false
				}
				d.i += 6
			default:
				d.bad = true
				return nil, false
			}
		case c < 0x20:
			d.bad = true
			return nil, false
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.bad = true
				return nil, false
			}
			d.i += size
		}
	}
	d.bad = true
	return nil, false
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// str reads a string value into a string of its own.
func (d *decoder) str() string { return d.text(d.rawString()) }

// text copies a string rawString scanned out of the body, unescaped.
func (d *decoder) text(raw []byte, escaped bool) string {
	switch {
	case d.bad || len(raw) == 0:
		return ""
	case escaped:
		return string(d.unescape(raw))
	}
	return string(raw)
}

// name reads a string value that is usually an op verb, an outcome, a
// vote or a variant name, and returns the shared constant when it is
// one.
func (d *decoder) name() string {
	raw, escaped := d.rawString()
	if d.bad || escaped {
		return d.text(raw, escaped)
	}
	switch string(raw) {
	case "get":
		return string(OpGet)
	case "put":
		return string(OpPut)
	case "delete":
		return string(OpDelete)
	case "committed":
		return "committed"
	case "aborted":
		return "aborted"
	case "in-doubt":
		return "in-doubt"
	case VoteYes:
		return VoteYes
	case VoteReadOnly:
		return VoteReadOnly
	case VoteNo:
		return VoteNo
	case "pa":
		return "pa"
	case "pn":
		return "pn"
	case "pc":
		return "pc"
	case "basic":
		return "basic"
	case "paxos":
		return "paxos"
	case "1pc":
		return "1pc"
	case "PA":
		return "PA"
	case "PN":
		return "PN"
	case "PC":
		return "PC"
	case "Basic2PC":
		return "Basic2PC"
	case "PaxosCommit":
		return "PaxosCommit"
	case "1PC":
		return "1PC"
	}
	return string(raw)
}

// unescape decodes the escapes of a string rawString accepted into the
// scratch buffer, which the caller copies before the next call.
func (d *decoder) unescape(raw []byte) []byte {
	out := d.tmp[:0]
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			continue
		}
		i++
		switch c := raw[i]; c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, _ := hex4(raw[i+1:])
			out = utf8.AppendRune(out, r)
			i += 4
		default: // '"', '\\', '/'
			out = append(out, c)
		}
	}
	d.tmp = out
	return out
}

// number scans a number value's bytes and reports whether they are
// JSON's number grammar, and whether an integer (no fraction, no
// exponent).
func (d *decoder) number() (tok []byte, integer bool) {
	d.skipSpace()
	start := d.i
	digits := func() bool {
		from := d.i
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
		return d.i > from
	}
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !digits():
		d.bad = true
		return nil, false
	}
	integer = true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		integer = false
		if !digits() {
			d.bad = true
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		integer = false
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !digits() {
			d.bad = true
		}
	}
	return d.b[start:d.i], integer
}

func (d *decoder) float() float64 {
	tok, _ := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.bad = true // out of range: json.Unmarshal's error, not a value
	}
	return f
}

func (d *decoder) int() int {
	tok, integer := d.number()
	if d.bad || !integer {
		d.bad = true
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.bad = true
	}
	return int(n)
}

// stringList reads a string list, null included: the encoders write a
// nil list so. An empty list decodes empty, not nil, as in
// json.Unmarshal.
func (d *decoder) stringList() []string {
	if d.literal("null") {
		return nil
	}
	d.expect('[')
	var stack [16]string
	list := stack[:0]
	for n := 0; d.more(']', n); n++ {
		list = append(list, d.str())
	}
	if d.bad {
		return nil
	}
	return append(make([]string, 0, len(list)), list...)
}

// ops reads an op list, built on the stack and copied out once.
func (d *decoder) ops() []Op {
	d.expect('[')
	var stack [16]Op
	list := stack[:0]
	for n := 0; d.more(']', n); n++ {
		var (
			op   Op
			seen uint16
		)
		d.expect('{')
		for m := 0; d.more('}', m); m++ {
			switch d.member(&seen, "key", "op", "value") {
			case 1:
				op.Key = d.str()
			case 2:
				op.Op = OpKind(d.name())
			case 4:
				op.Value = d.str()
			}
		}
		list = append(list, op)
	}
	if d.bad {
		return nil
	}
	return append(make([]Op, 0, len(list)), list...)
}

// reads reads a reads map. A repeated key keeps its last value, as in
// json.Unmarshal.
func (d *decoder) reads() map[string]string {
	d.expect('{')
	m := make(map[string]string)
	for n := 0; d.more('}', n); n++ {
		k := d.str()
		d.expect(':')
		m[k] = d.str()
	}
	return m
}

func (d *decoder) cost() *CostSummary {
	var (
		c    CostSummary
		seen uint16
	)
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch d.member(&seen, "flows", "log_writes", "forced_writes") {
		case 1:
			c.Flows = d.int()
		case 2:
			c.LogWrites = d.int()
		case 4:
			c.ForcedWrites = d.int()
		}
	}
	return &c
}

// end reports whether the decode succeeded, with only space after the
// value.
func (d *decoder) end() bool {
	d.skipSpace()
	return !d.bad && d.i == len(d.b)
}

func decodeCommitRequest(b []byte, r *CommitRequest) bool {
	d := decoder{b: b}
	var seen uint16
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch d.member(&seen, "tx", "variant", "ops") {
		case 1:
			r.Tx = d.str()
		case 2:
			r.Variant = d.name()
		case 4:
			r.Ops = d.ops()
		}
	}
	return d.end()
}

func decodeCommitResponse(b []byte, r *CommitResponse) bool {
	d := decoder{b: b}
	var seen uint16
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch d.member(&seen, "tx", "outcome", "variant", "coordinator",
			"participants", "reads", "abort", "latency_ms", "cost") {
		case 1:
			r.Tx = d.str()
		case 2:
			r.Outcome = d.name()
		case 4:
			r.Variant = d.name()
		case 8:
			r.Coordinator = d.str()
		case 16:
			r.Participants = d.stringList()
		case 32:
			r.Reads = d.reads()
		case 64:
			r.Abort = d.str()
		case 128:
			r.LatencyMS = d.float()
		case 256:
			r.Cost = d.cost()
		}
	}
	return d.end()
}

func decodeStageRequest(b []byte, r *StageRequest) bool {
	d := decoder{b: b}
	var seen uint16
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch d.member(&seen, "tx", "variant", "ops", "abort") {
		case 1:
			r.Tx = d.str()
		case 2:
			r.Variant = d.name()
		case 4:
			r.Ops = d.ops()
		case 8:
			switch {
			case d.literal("true"):
				r.Abort = true
			case !d.literal("false"):
				d.bad = true
			}
		}
	}
	return d.end()
}

func decodeStageResponse(b []byte, r *StageResponse) bool {
	d := decoder{b: b}
	var seen uint16
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch d.member(&seen, "tx", "vote", "reads") {
		case 1:
			r.Tx = d.str()
		case 2:
			r.Vote = d.name()
		case 4:
			r.Reads = d.reads()
		}
	}
	return d.end()
}
