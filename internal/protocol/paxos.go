package protocol

import (
	"fmt"
	"strconv"
	"strings"
)

// Paxos Commit metadata rides in Message.Payload so the Message struct
// and the binary codec's frame layout stay unchanged — old peers and
// new peers speak the same frame version, and a packet carrying a
// Paxos message simply has a payload the old peer would never be sent.
//
// The encoding is a compact, deterministic text format (debuggable in
// traces, stable under the codec fuzzers, no reflection):
//
//	pax1 b=<ballot> i=<instance> l=<leader> a=<acc1,...> p=<part1,...> s=<inst:bal:vote|...>
//
// Empty fields are omitted. The leading "pax1" tags the version.

// PaxosInstanceState is one acceptor's durable state for one Paxos
// instance (one participant's vote): the highest ballot at which it
// accepted a value, and that value. Ballot -1 means nothing accepted.
type PaxosInstanceState struct {
	Instance string
	Ballot   int
	Vote     VoteValue
}

// PaxosMeta is the Paxos-specific content of the four Paxos message
// types, plus the acceptor membership announced on a Paxos-variant
// Prepare.
type PaxosMeta struct {
	// Ballot is the proposal number. The coordinator's fast path uses
	// ballot 0; recovery leaders use higher, globally unique ballots.
	Ballot int
	// Instance names the participant whose vote this message concerns
	// ("" on a PaxosQuery means all instances of the transaction).
	Instance string
	// Leader is the node acceptors reply to for this ballot. Ballot-0
	// accepts arrive from each instance's own participant, not from
	// the leader, so the reply-to must travel explicitly.
	Leader string
	// Acceptors is the 2f+1 acceptor membership for the transaction.
	// Carried on Prepare (so every participant learns whom to ask
	// after a coordinator crash) and on PaxosAccept/PaxosQuery (so a
	// restarted acceptor relearns it).
	Acceptors []string
	// Participants is the full instance set — one Paxos instance per
	// participant. An acceptor bundles its ballot-0 acceptances into a
	// single forced record once every instance has reported, so it
	// must know the set.
	Participants []string
	// States is a PaxosPromise's report of previously accepted values,
	// one entry per instance the acceptor has state for.
	States []PaxosInstanceState
}

// Encode renders the metadata for Message.Payload.
func (pm PaxosMeta) Encode() []byte {
	var b strings.Builder
	b.WriteString("pax1 b=")
	b.WriteString(strconv.Itoa(pm.Ballot))
	if pm.Instance != "" {
		b.WriteString(" i=")
		b.WriteString(pm.Instance)
	}
	if pm.Leader != "" {
		b.WriteString(" l=")
		b.WriteString(pm.Leader)
	}
	if len(pm.Acceptors) > 0 {
		b.WriteString(" a=")
		b.WriteString(strings.Join(pm.Acceptors, ","))
	}
	if len(pm.Participants) > 0 {
		b.WriteString(" p=")
		b.WriteString(strings.Join(pm.Participants, ","))
	}
	if len(pm.States) > 0 {
		b.WriteString(" s=")
		for i, st := range pm.States {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%s:%d:%d", st.Instance, st.Ballot, int(st.Vote))
		}
	}
	return []byte(b.String())
}

// DecodePaxosMeta parses a payload produced by Encode.
func DecodePaxosMeta(payload []byte) (PaxosMeta, error) {
	fields := strings.Fields(string(payload))
	if len(fields) == 0 || fields[0] != "pax1" {
		return PaxosMeta{}, fmt.Errorf("protocol: not a paxos payload: %q", payload)
	}
	var pm PaxosMeta
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return PaxosMeta{}, fmt.Errorf("protocol: bad paxos field %q", f)
		}
		switch k {
		case "b":
			n, err := strconv.Atoi(v)
			if err != nil {
				return PaxosMeta{}, fmt.Errorf("protocol: bad paxos ballot %q", v)
			}
			pm.Ballot = n
		case "i":
			pm.Instance = v
		case "l":
			pm.Leader = v
		case "a":
			pm.Acceptors = strings.Split(v, ",")
		case "p":
			pm.Participants = strings.Split(v, ",")
		case "s":
			for _, ent := range strings.Split(v, "|") {
				parts := strings.Split(ent, ":")
				if len(parts) != 3 {
					return PaxosMeta{}, fmt.Errorf("protocol: bad paxos state %q", ent)
				}
				bal, err1 := strconv.Atoi(parts[1])
				vote, err2 := strconv.Atoi(parts[2])
				if err1 != nil || err2 != nil {
					return PaxosMeta{}, fmt.Errorf("protocol: bad paxos state %q", ent)
				}
				pm.States = append(pm.States, PaxosInstanceState{
					Instance: parts[0], Ballot: bal, Vote: VoteValue(vote),
				})
			}
			// Unknown keys are ignored: a future pax1 extension stays
			// readable by this decoder.
		}
	}
	return pm, nil
}
