package protocol

import (
	"encoding/base64"
	"fmt"
	"strings"
)

// One-phase commit (the logless "vote before decide" fast path)
// metadata rides in Message.Payload, exactly like Paxos Commit's: the
// Message struct and the binary codec's frame layout stay unchanged,
// so old peers and new peers speak the same frame version and a
// packet carrying 1PC metadata is simply one an old peer would never
// be sent.
//
// The encoding is a compact, deterministic text format (debuggable in
// traces, stable under the codec fuzzers, no reflection):
//
//	opc1 s=<sub1,sub2,...> r=<b64|b64|...> d=<b64>
//
// Empty fields are omitted. The leading "opc1" tags the version.
//
// Three message positions use it:
//
//   - A subordinate's VoteYes carries d=<redo>: the opaque redo
//     payload whose durability the voter delegates to the coordinator
//     (the voter forces nothing before voting).
//   - The coordinator's forced Committed record carries s= and r=:
//     the participant set and each voter's redo, so a restarted
//     coordinator can re-drive delivery to amnesiac voters.
//   - A Commit retransmission to a voter echoes d=<redo> back, so a
//     voter that crashed and lost everything can re-apply its work.

// OnePhaseMeta is the 1PC-specific content of votes, decision records,
// and commit retransmissions.
type OnePhaseMeta struct {
	// Subs is the participant set recorded by the coordinator.
	Subs []string
	// Redos holds one redo payload per entry of Subs (parallel
	// slices); nil entries are voters that carried no redo.
	Redos [][]byte
	// Redo is the single payload position: a voter's redo on its
	// VoteYes, or the echo on a Commit retransmission.
	Redo []byte
}

// Encode renders the metadata for Message.Payload or a log record.
func (om OnePhaseMeta) Encode() []byte {
	var b strings.Builder
	b.WriteString("opc1")
	if len(om.Subs) > 0 {
		b.WriteString(" s=")
		b.WriteString(strings.Join(om.Subs, ","))
	}
	if len(om.Redos) > 0 {
		b.WriteString(" r=")
		for i, r := range om.Redos {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(base64.StdEncoding.EncodeToString(r))
		}
	}
	if len(om.Redo) > 0 {
		b.WriteString(" d=")
		b.WriteString(base64.StdEncoding.EncodeToString(om.Redo))
	}
	return []byte(b.String())
}

// DecodeOnePhaseMeta parses a payload produced by Encode.
func DecodeOnePhaseMeta(payload []byte) (OnePhaseMeta, error) {
	fields := strings.Fields(string(payload))
	if len(fields) == 0 || fields[0] != "opc1" {
		return OnePhaseMeta{}, fmt.Errorf("protocol: not a one-phase payload: %q", payload)
	}
	var om OnePhaseMeta
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return OnePhaseMeta{}, fmt.Errorf("protocol: bad one-phase field %q", f)
		}
		switch k {
		case "s":
			om.Subs = strings.Split(v, ",")
		case "r":
			for _, ent := range strings.Split(v, "|") {
				if ent == "" {
					om.Redos = append(om.Redos, nil)
					continue
				}
				raw, err := base64.StdEncoding.DecodeString(ent)
				if err != nil {
					return OnePhaseMeta{}, fmt.Errorf("protocol: bad one-phase redo %q", ent)
				}
				om.Redos = append(om.Redos, raw)
			}
		case "d":
			raw, err := base64.StdEncoding.DecodeString(v)
			if err != nil {
				return OnePhaseMeta{}, fmt.Errorf("protocol: bad one-phase redo %q", v)
			}
			om.Redo = raw
			// Unknown keys are ignored: a future opc1 extension stays
			// readable by this decoder.
		}
	}
	return om, nil
}
