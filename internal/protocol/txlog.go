package protocol

import (
	"fmt"
	"strings"

	"repro/internal/wal"
)

// The transaction manager's log, written once for both engines: the
// record kinds, one payload type and codec (LogRecord), and one fold
// that reads a node's records back at restart (ReplayLog). Each engine
// keeps only what it does with the fold's answer.

// Transaction-manager record kinds. Resource managers write records of
// their own kinds to a shared log; the fold skips them.
const (
	RecPending      = "Pending"      // PN coordinator, before its first Prepare: the membership
	RecCollecting   = "Collecting"   // PC's pre-prepare record, the same payload
	RecAgentPending = "AgentPending" // PN subordinate before voting yes: its coordinator (simulator only)
	RecPrepared     = "Prepared"     // a yes vote, or a coordinator's delegation to its last agent
	RecCommitted    = "Committed"    // the commit decision: the subordinates owed an ack
	RecAborted      = "Aborted"      // the abort decision: the same payload
	RecEnd          = "End"          // every ack is in: the transaction is forgettable
	RecHeuristic    = "Heuristic"    // a unilateral outcome, before the real one is known (simulator only)
	RecPaxAccept    = "PaxAccept"    // a Paxos acceptor's acceptance: membership and accepted states
	RecPaxPromise   = "PaxPromise"   // a Paxos acceptor's promise: its ballot and accepted states
)

// IsTMRecord reports whether kind is a transaction-manager record kind;
// anything else in a shared log belongs to a resource manager.
func IsTMRecord(kind string) bool {
	switch kind {
	case RecPending, RecCollecting, RecAgentPending, RecPrepared, RecCommitted,
		RecAborted, RecEnd, RecHeuristic, RecPaxAccept, RecPaxPromise:
		return true
	}
	return false
}

// LogRecord is one transaction-manager record: its kind and the payload
// fields a restart reads back. Its payload form is the first that
// applies:
//
//	Paxos != nil   PaxosMeta.Encode            pax1 b=0 a=C,S1,S2 p=C,S1,S2
//	OnePhase       OnePhaseMeta{Subs, Redos}   opc1 s=S1,S2 r=<b64>|<b64>
//	Agent != ""    the delegation              dlg1 PresumeAbort S2 S1
//	Kind Prepared  the presumption             PresumeAbort
//	otherwise      the subordinates            S1,S2
//
// then the keys only the simulator writes: " s=<subs>" on a presumption,
// " c=<coord>", " h=1". The runtime's logs outlive the process, so no
// form may change; a new field is a new key.
type LogRecord struct {
	Kind string
	// Subs names subordinates: a pre-prepare record's membership, a
	// decision's ackers, a delegation's other yes-voters, a 1PC
	// decision's voters, a simulator subordinate's own yes-voters.
	Subs []string
	// Presume is the presumption a Prepared record announces, so a
	// restarted subordinate recovers under its coordinator's variant.
	Presume Variant
	// Agent is the last agent a delegation hands the decision to.
	Agent string
	// Paxos is an acceptor's state, or a Paxos Prepared's membership.
	Paxos *PaxosMeta
	// OnePhase marks a 1PC decision, whose Redos hold each voter's redo
	// (parallel to Subs): the only stable copy of its voters' work.
	OnePhase bool
	Redos    [][]byte
	// Coord is the node's coordinator, Commit a Heuristic record's
	// choice; only the simulator's recovery reads them.
	Coord  string
	Commit bool
}

// Encode renders the record's payload; an empty payload is nil.
func (r LogRecord) Encode() []byte {
	var b []byte
	switch {
	case r.Paxos != nil:
		b = r.Paxos.Encode()
	case r.OnePhase:
		b = OnePhaseMeta{Subs: r.Subs, Redos: r.Redos}.Encode()
	case r.Agent != "":
		name := r.Presume.PresumeName()
		b = append(make([]byte, 0, len("dlg1  ")+len(name)+len(r.Agent)+joinedLen(r.Subs)), "dlg1 "...)
		b = append(append(append(b, name...), ' '), r.Agent...)
		if len(r.Subs) > 0 {
			b = appendList(append(b, ' '), r.Subs, ' ')
		}
	case r.Kind == RecPrepared:
		b = []byte(r.Presume.PresumeName())
		if len(r.Subs) > 0 {
			b = appendList(append(b, " s="...), r.Subs, ',')
		}
	case len(r.Subs) > 0:
		b = appendList(make([]byte, 0, joinedLen(r.Subs)), r.Subs, ',')
	}
	if r.Coord != "" {
		b = appendKey(b, "c=", r.Coord)
	}
	if r.Commit {
		b = appendKey(b, "h=", "1")
	}
	return b
}

// appendList appends names, sep-separated.
func appendList(b []byte, names []string, sep byte) []byte {
	for i, s := range names {
		if i > 0 {
			b = append(b, sep)
		}
		b = append(b, s...)
	}
	return b
}

// joinedLen is the length of names joined, plus one.
func joinedLen(names []string) int {
	n := len(names)
	for _, s := range names {
		n += len(s)
	}
	return n
}

// appendKey appends one key=value word.
func appendKey(b []byte, key, v string) []byte {
	if len(b) > 0 {
		b = append(b, ' ')
	}
	return append(append(b, key...), v...)
}

// DecodeLogRecord parses a payload Encode wrote for a record of kind.
// Unknown keys are ignored, so a later key stays readable here.
func DecodeLogRecord(kind string, data []byte) (LogRecord, error) {
	r := LogRecord{Kind: kind}
	words := strings.Fields(string(data))
	if len(words) == 0 {
		return r, nil
	}
	rest, positional, subsKey := words[1:], false, false
	switch words[0] {
	case "pax1":
		pm, err := DecodePaxosMeta(data)
		if err != nil {
			return LogRecord{}, err
		}
		r.Paxos, r.Presume = &pm, VariantPaxos
	case "opc1":
		om, err := DecodeOnePhaseMeta(data)
		if err != nil {
			return LogRecord{}, err
		}
		r.OnePhase, r.Subs, r.Redos = true, om.Subs, om.Redos
	case "dlg1":
		if len(words) < 3 {
			return LogRecord{}, fmt.Errorf("protocol: short delegation record %q", data)
		}
		v, ok := VariantByPresumeName(words[1])
		if !ok {
			return LogRecord{}, fmt.Errorf("protocol: unknown presumption %q", words[1])
		}
		r.Presume, r.Agent, rest, positional = v, words[2], words[3:], true
	default:
		subsKey = kind == RecPrepared
		switch head := words[0]; {
		case strings.Contains(head, "="):
			rest = words
		case subsKey:
			v, ok := VariantByPresumeName(head)
			if !ok {
				return LogRecord{}, fmt.Errorf("protocol: unknown presumption %q", head)
			}
			r.Presume = v
		default:
			r.Subs = strings.Split(head, ",")
		}
	}
	for _, w := range rest {
		k, v, ok := strings.Cut(w, "=")
		switch {
		case !ok && positional:
			r.Subs = append(r.Subs, w)
		case !ok:
			return LogRecord{}, fmt.Errorf("protocol: bad %s record field %q", kind, w)
		case k == "c":
			r.Coord = v
		case k == "h":
			r.Commit = v == "1"
		case k == "s" && subsKey:
			r.Subs = strings.Split(v, ",")
		}
	}
	return r, nil
}

// TxLog is what one node's log proves about one transaction: the last
// record of each kind, decoded. A record whose payload does not decode
// still counts for its kind, with an empty payload — a Prepared record
// then presumes nothing, whose rules are safe under every variant.
type TxLog struct {
	Tx        string
	Pre       *LogRecord // the last pre-prepare record: Pending, Collecting or AgentPending
	Prepared  *LogRecord
	Decision  *LogRecord // the last Committed record, else the last Aborted
	Heuristic *LogRecord
	Ended     bool
	// Acceptor: the node wrote Paxos acceptor records; Accepts are its
	// PaxAccept states in log order, Promise its highest-ballot
	// PaxPromise (the first of equals).
	Acceptor bool
	Accepts  []PaxosMeta
	Promise  *PaxosMeta
}

// InDoubt reports whether the node prepared — voted yes, or delegated
// the decision — and its log holds no decision and no End.
func (l *TxLog) InDoubt() bool {
	return l.Prepared != nil && l.Decision == nil && !l.Ended
}

// Record is the acceptor record of step, of its Kind, PaxAccept or
// PaxPromise: the membership and the step's states, so a restart
// rebuilds the acceptor from its log alone (TxLog.RestoreAcceptor).
func (t *PaxosTx) Record(step PaxosStep) LogRecord {
	m := t.Meta(step.Ballot, "")
	m.States = step.States
	return LogRecord{Kind: step.Kind, Paxos: &m}
}

// RestoreAcceptor folds the acceptor records into t: every PaxAccept in
// log order, then the highest PaxPromise, each first offering its
// membership (Adopt keeps the first).
func (l *TxLog) RestoreAcceptor(t *PaxosTx) {
	for _, m := range l.Accepts {
		t.Adopt(m.Acceptors, m.Participants)
		t.Restore(true, m.Ballot, m.States)
	}
	if m := l.Promise; m != nil {
		t.Adopt(m.Acceptors, m.Participants)
		t.Restore(false, m.Ballot, m.States)
	}
}

// Paxos reports whether the log holds Paxos Commit state to restart
// from: acceptor records, or a Prepared record naming the membership.
func (l *TxLog) Paxos() bool {
	return l.Acceptor || l.Prepared != nil && l.Prepared.Paxos != nil && len(l.Prepared.Paxos.Acceptors) > 0
}

// Restart brings t back from l after a restart: the membership its
// records name, its acceptor state (RestoreAcceptor), and its own
// instance, which it can no longer cast: Yes when its Prepared record
// survived, else No — its resources lost what they had prepared, unless
// an acceptor already holds the instance.
func (l *TxLog) Restart(t *PaxosTx) {
	if p := l.Prepared; p != nil && p.Paxos != nil {
		t.Adopt(p.Paxos.Acceptors, p.Paxos.Participants)
	}
	t.Vote, t.VoteSent = VoteNo, true
	if l.Prepared != nil {
		t.Vote = VoteYes
	}
	l.RestoreAcceptor(t)
}

// Back is what a restarted node comes back as for one transaction
// (TxLog.Comeback): the presumptions' restart rules, as one table.
type Back uint8

// The seven answers, in the order Comeback checks them.
const (
	// BackForgotten: nothing is left to do. Sub is finished when the
	// log proves an outcome.
	BackForgotten Back = iota
	// BackHeuristic: a unilateral outcome awaits the real one, which
	// the node asks of Upstream (simulator only).
	BackHeuristic
	// BackRedrive: a decision. Coord is decided over the members its
	// record names, each told again, and Redo is a 1PC record's
	// payload; Sub is finished, and prepared when the node voted yes.
	BackRedrive
	// BackDelegated: a coordinator that delegated asks Coord.Agent()
	// again.
	BackDelegated
	// BackPaxos: Paxos Commit state, for TxLog.Restart.
	BackPaxos
	// BackInDoubt: Sub is prepared again and asks Upstream; Coord holds
	// the yes-voters of its subtree.
	BackInDoubt
	// BackAbort: a pre-prepare record with no decision: Coord aborts
	// the membership it names.
	BackAbort
)

// Comeback is one transaction's restart: what comes back (Back), and
// the round and the subordinate part it comes back with, reinstated.
type Comeback struct {
	Back  Back
	Coord Coord // Logged, under the node's variant unless its record names one
	Sub   Sub
	// Upstream is the node's coordinator as its record names it (the
	// simulator's records name it, the runtime's do not).
	Upstream string
	Redo     []byte
}

// Comeback is what the node whose log l is comes back as, under its
// own variant v. The first case that holds decides:
//
//	End                         forgotten, with the outcome the log proves
//	Heuristic                   ask for the real outcome
//	Committed or Aborted        redrive the decision to the members it names
//	a delegation                ask the agent again
//	Paxos records               TxLog.Restart
//	Prepared                    in doubt: ask the coordinator
//	a pre-prepare's membership  abort it; none (a leaf's AgentPending): forgotten as aborted
func (l *TxLog) Comeback(v Variant) Comeback {
	d, pr := l.Decision, l.Prepared
	b := Comeback{Back: BackRedrive, Coord: Coord{Variant: v, Logged: true}, Sub: Sub{Presume: v}}
	if pr != nil && pr.Agent == "" {
		b.Sub.Reinstate(pr)
	}
	switch {
	case l.Ended:
		b.Back = BackForgotten
		if d != nil {
			b.Sub.Finish(d.Kind == RecCommitted)
		}
	case l.Heuristic != nil:
		b.Back, b.Upstream = BackHeuristic, l.Heuristic.Coord
	case d != nil:
		commit := d.Kind == RecCommitted
		b.Upstream = d.Coord
		b.Coord.Reinstate(v, d.Subs, "")
		b.Coord.Decide(commit)
		b.Sub.Finish(commit)
		if d.OnePhase {
			b.Redo = d.Encode()
		}
	case pr != nil && pr.Agent != "":
		b.Back, b.Upstream = BackDelegated, pr.Coord
		b.Coord.Reinstate(pr.Presume, pr.Subs, pr.Agent)
	case l.Paxos():
		b.Back = BackPaxos
		if pr != nil {
			b.Upstream = pr.Coord
		}
	case pr != nil:
		b.Back, b.Upstream = BackInDoubt, pr.Coord
		b.Coord.Reinstate(v, pr.Subs, "")
	case l.Pre != nil && len(l.Pre.Subs) > 0:
		pv, _ := VariantByPrePrepare(l.Pre.Kind)
		b.Back, b.Upstream = BackAbort, l.Pre.Coord
		b.Coord.Reinstate(pv, l.Pre.Subs, "")
	default:
		b.Back = BackForgotten
		b.Sub.Finish(false)
	}
	return b
}

// ReplayLog folds the records self wrote into one TxLog per
// transaction, in the order each transaction first appears. It is the
// one reader of the transaction manager's log: both engines restart
// from its answer.
func ReplayLog(recs []wal.Record, self string) []TxLog {
	var out []TxLog
	index := make(map[string]int)
	for _, rec := range recs {
		if rec.Node != self || !IsTMRecord(rec.Kind) {
			continue
		}
		i, ok := index[rec.Tx]
		if !ok {
			i = len(out)
			index[rec.Tx] = i
			out = append(out, TxLog{Tx: rec.Tx})
		}
		l := &out[i]
		r, err := DecodeLogRecord(rec.Kind, rec.Data)
		if err != nil {
			r = LogRecord{Kind: rec.Kind}
		}
		switch rec.Kind {
		case RecPending, RecCollecting, RecAgentPending:
			l.Pre = &r
			if r.Agent != "" {
				l.Prepared = &r // the simulator's single-partner delegation
			}
		case RecPrepared:
			l.Prepared = &r
		case RecCommitted:
			l.Decision = &r
		case RecAborted:
			if l.Decision == nil || l.Decision.Kind != RecCommitted {
				l.Decision = &r
			}
		case RecHeuristic:
			l.Heuristic = &r
		case RecEnd:
			l.Ended = true
		case RecPaxAccept:
			l.Acceptor = true
			if r.Paxos != nil {
				l.Accepts = append(l.Accepts, *r.Paxos)
			}
		case RecPaxPromise:
			l.Acceptor = true
			if r.Paxos != nil && (l.Promise == nil || r.Paxos.Ballot > l.Promise.Ballot) {
				l.Promise = r.Paxos
			}
		}
	}
	return out
}
