package protocol

import (
	"reflect"
	"testing"
)

// subRow is one variant's subordinate row, written out from DESIGN §3
// and the paper's Tables 2-3 rather than from the rulebook: what a
// yes-voter forces, what it writes and whether it acks for each
// outcome, and what a last agent writes for its decision.
type subRow struct {
	v                       Variant
	agentPending, prepared  bool  // forced before a yes vote (false, false: the vote carries the redo)
	commitWrite, abortWrite Write // a prepared subordinate's outcome record
	ackCommit, ackAbort     bool
	agentAbort              Write // a last agent's abort record
	abortsRepeat            bool  // a repeated delegation with no decision is answered abort
}

var subRows = []subRow{
	{v: VariantBaseline, prepared: true, commitWrite: Forced, abortWrite: Forced, ackCommit: true, ackAbort: true, agentAbort: Forced},
	{v: VariantPA, prepared: true, commitWrite: Forced, abortWrite: Lazy, ackCommit: true, agentAbort: NoWrite, abortsRepeat: true},
	{v: VariantPN, agentPending: true, prepared: true, commitWrite: Forced, abortWrite: Forced, ackCommit: true, ackAbort: true, agentAbort: Forced},
	{v: VariantPC, prepared: true, commitWrite: Lazy, abortWrite: Forced, ackAbort: true, agentAbort: Forced},
	{v: Variant1PC, commitWrite: Lazy, abortWrite: Lazy, ackCommit: true},
}

func (r subRow) ack(commit bool) bool {
	if commit {
		return r.ackCommit
	}
	return r.ackAbort
}

func (r subRow) write(commit bool) Write {
	if commit {
		return r.commitWrite
	}
	return r.abortWrite
}

func prepareMsg(v Variant) *Message { return &Message{Type: MsgPrepare, Tx: "t", Presume: v} }

// voted returns a Sub that took a first Prepare under v and voted vote.
func voted(t *testing.T, v Variant, vote VoteValue) (Sub, VoteStep) {
	t.Helper()
	var s Sub
	if st := s.Prepare(prepareMsg(v)); st.Do != DoPrepare || s.Presume != v {
		t.Fatalf("%v: first Prepare = %+v (presume %v), want DoPrepare under %v", v, st, s.Presume, v)
	}
	return s, s.Voted("t", vote, true, Asked)
}

// TestSubRound walks every classic variant through each input a
// subordinate meets, in each state it can meet it in.
func TestSubRound(t *testing.T) {
	for _, r := range subRows {
		v := r.v
		t.Run(v.String(), func(t *testing.T) {
			// A first Prepare answered yes: the prepare records, the vote
			// kept for a resent Prepare, and the entry stays.
			s, st := voted(t, v, VoteYes)
			want := VoteStep{Force: Prepare{AgentPending: r.agentPending, Prepared: r.prepared}, Redo: !r.prepared}
			if st != want || !s.Prepared || s.Done || s.Vote().Type != MsgVote || s.Vote().Vote != VoteYes || s.Vote().Tx != "t" {
				t.Errorf("yes vote = %+v, sub %+v; want %+v, prepared", st, s, want)
			}
			// A resent Prepare after yes repeats the kept vote, off the
			// flow count, and prepares nothing.
			if got := s.Prepare(&Message{Type: MsgPrepare, Tx: "t", Presume: v, Repeat: true}); got.Do != DoReply || !reflect.DeepEqual(got.Msg, s.Vote()) {
				t.Errorf("resent Prepare after yes = %+v, want the kept vote", got)
			}
			// The outcome after yes, logged as the runtime counts it (any
			// yes): the variant's record and ack.
			for _, commit := range []bool{true, false} {
				p := s
				got := p.Outcome("t", commit, Own{Variant: VariantPA, Logged: true})
				if got.Do != DoApply || got.Write != r.write(commit) || got.Ack != r.ack(commit) || got.Unasked || p.Presume != v {
					t.Errorf("outcome commit=%v after yes = %+v (presume %v), want write %v ack %v under %v",
						commit, got, p.Presume, r.write(commit), r.ack(commit), v)
				}
				// A duplicate after it is applied: the ack again iff the
				// variant acks this outcome; the other outcome gets nothing.
				p.Finish(commit)
				dup := p.Outcome("t", commit, Own{})
				if wantAck := r.ack(commit); (dup.Do == DoReply) != wantAck || wantAck && !reflect.DeepEqual(dup.Msg, Message{Type: MsgAck, Tx: "t"}) {
					t.Errorf("duplicate outcome commit=%v = %+v, want re-ack %v", commit, dup, wantAck)
				}
				if other := p.Outcome("t", !commit, Own{}); other.Do != DoNothing {
					t.Errorf("conflicting duplicate commit=%v = %+v, want nothing", !commit, other)
				}
			}

			// The simulator says what it wrote: a yes-voter with no record
			// (a logless 1PC leaf) has no abort to record.
			if got := s.Outcome("t", false, Own{Variant: v, Announced: true}); got.Do != DoApply || got.Write != NoWrite || got.Ack != r.ackAbort {
				t.Errorf("abort after an unlogged yes = %+v, want no record, ack %v", got, r.ackAbort)
			}

			// A no vote: the voter aborts here and is done.
			s, st = voted(t, v, VoteNo)
			if st != (VoteStep{Then: Aborts}) || !s.Done || s.Committed || s.Prepared {
				t.Errorf("no vote = %+v, sub %+v; want Aborts, done aborted", st, s)
			}

			// A read-only vote leaves; a resent Prepare finds a blank
			// entry, prepares again, and its read-only vote is extra.
			s, st = voted(t, v, VoteReadOnly)
			if st != (VoteStep{Then: Leaves}) || s.Prepared || s.Done {
				t.Errorf("read-only vote = %+v, sub %+v; want Leaves, nothing kept", st, s)
			}
			var again Sub
			if got := again.Prepare(&Message{Type: MsgPrepare, Tx: "t", Presume: v, Repeat: true}); got.Do != DoPrepare {
				t.Errorf("resent Prepare after read-only = %+v, want DoPrepare", got)
			}
			if st := again.Voted("t", VoteReadOnly, true, Resent); st != (VoteStep{Then: Leaves, Extra: true}) {
				t.Errorf("resent read-only vote = %+v, want Leaves, extra", st)
			}
			if st := again.Voted("t", VoteYes, true, Resent); st.Extra || st.Then != Stays {
				t.Errorf("resent yes vote = %+v, want a first vote", st)
			}

			// An outcome before any Prepare: the node's own variant rules
			// it; the ack is recovery traffic. A live node cannot know its
			// coordinator's variant, so it records and acks an abort
			// whatever the variant; a simulator node (Announced) knows it
			// and has nothing to undo.
			for _, commit := range []bool{true, false} {
				var live, sim, retired Sub
				got := live.Outcome("t", commit, Own{Variant: v})
				wantW, wantAck := r.commitWrite, r.ackCommit
				if !commit {
					wantW, wantAck = Lazy, true
					if r.ackAbort {
						wantW = Forced
					}
				}
				if got.Do != DoApply || got.Write != wantW || got.Ack != wantAck || !got.Unasked || live.Presume != v {
					t.Errorf("live outcome commit=%v before Prepare = %+v, want write %v ack %v, unasked", commit, got, wantW, wantAck)
				}
				got = sim.Outcome("t", commit, Own{Variant: v, Announced: true})
				if !commit {
					wantW, wantAck = NoWrite, r.ackAbort
				}
				if got.Do != DoApply || got.Write != wantW || got.Ack != wantAck || !got.Unasked {
					t.Errorf("announced outcome commit=%v before Prepare = %+v, want write %v ack %v", commit, got, wantW, wantAck)
				}
				if got := retired.Outcome("t", commit, Own{Variant: v, Retired: true}); got.Do != DoNothing {
					t.Errorf("outcome on a resurrected blank entry = %+v, want nothing", got)
				}
			}

			// Volunteering: prepare under the named variant; after yes
			// the kept vote again; once decided, nothing.
			var vol Sub
			if got := vol.Volunteer(v); got.Do != DoPrepare || vol.Presume != v {
				t.Errorf("volunteer = %+v, want DoPrepare under %v", got, v)
			}
			if st := vol.Voted("t", VoteYes, true, Volunteered); !vol.Vote().Unsolicited || st.Then != Stays {
				t.Errorf("volunteered yes = %+v, vote %+v; want an unsolicited vote", st, vol.Vote())
			}
			if got := vol.Volunteer(v); got.Do != DoReply || !reflect.DeepEqual(got.Msg, vol.Vote()) {
				t.Errorf("volunteer after yes = %+v, want the kept vote", got)
			}
			vol.Finish(true)
			if got := vol.Volunteer(v); got.Do != DoNothing {
				t.Errorf("volunteer after the decision = %+v, want nothing", got)
			}

			// A restart reinstates a yes-voter in doubt under the
			// presumption its Prepared record names, and the outcome then
			// applies as after its vote.
			var back Sub
			back.Reinstate(&LogRecord{Kind: RecPrepared, Presume: v})
			if got := back.Outcome("t", true, Own{Variant: VariantPA}); !back.Prepared || back.Presume != v || got.Write != r.commitWrite || got.Ack != r.ackCommit || got.Unasked {
				t.Errorf("outcome after a restart = %+v (sub %+v), want write %v ack %v under %v", got, back, r.commitWrite, r.ackCommit, v)
			}

			// Messages after the decision.
			for _, committed := range []bool{true, false} {
				d := Sub{Presume: v, Done: true, Committed: committed}
				got := d.Prepare(prepareMsg(v))
				if committed && got.Do != DoNothing || !committed && (got.Do != DoReply || got.Msg.Type != MsgVote || got.Msg.Vote != VoteNo) {
					t.Errorf("Prepare after %v = %+v, want a no vote only after an abort", committed, got)
				}
				if got := d.Answer(&Message{Type: MsgPrepare, Tx: "t", Presume: VariantPaxos}); got.Do != DoNothing {
					t.Errorf("Paxos Prepare after %v = %+v, want nothing", committed, got)
				}
				dl := &Message{Type: MsgPrepare, Tx: "t", Presume: v, Delegate: true, Repeat: true}
				if got := d.Prepare(dl); got.Do != DoReply || !reflect.DeepEqual(got.Msg, OutcomeMessage("t", committed)) {
					t.Errorf("delegation after %v = %+v, want the outcome", committed, got)
				}
				if got := d.Answer(&Message{Type: MsgVote, Tx: "t", Vote: VoteYes, LastAgent: true}); !reflect.DeepEqual(got.Msg, OutcomeMessage("t", committed)) {
					t.Errorf("simulator delegation after %v = %+v, want the outcome", committed, got)
				}
				out := Message{Type: MsgOutcome, Tx: "t", Outcome: OutcomeAbort}
				if committed {
					out.Outcome = OutcomeCommit
				}
				if got := d.Answer(&out); (got.Do == DoReply) != r.ack(committed) {
					t.Errorf("inquiry answer after %v = %+v, want re-ack %v", committed, got, r.ack(committed))
				}
			}
			if v == Variant1PC {
				return // a logless vote has nothing to delegate
			}

			// A first delegation prepares; a repeat prepares too unless
			// presumed abort answers it abort.
			var ag Sub
			if got := ag.Prepare(&Message{Type: MsgPrepare, Tx: "t", Presume: v, Delegate: true}); got.Do != DoPrepare || ag.Presume != v {
				t.Errorf("first delegation = %+v, want DoPrepare under %v", got, v)
			}
			wantRepeat := DoPrepare
			if r.abortsRepeat {
				wantRepeat = DoDecide
			}
			var rep Sub
			if got := rep.Prepare(&Message{Type: MsgPrepare, Tx: "t", Presume: v, Delegate: true, Repeat: true}); got.Do != wantRepeat {
				t.Errorf("repeated delegation = %+v, want %v", got, wantRepeat)
			}
			// The agent's decision: a commit forced and held for the
			// coordinator's ack where commits are acked, a read-only one
			// unwritten, an abort written as the owner's.
			if commit, d := ag.Decide(VoteYes); !commit || d.Write != Forced || d.Acked != r.ackCommit {
				t.Errorf("agent yes = %v %+v, want a forced commit, held %v", commit, d, r.ackCommit)
			}
			if commit, d := ag.Decide(VoteReadOnly); !commit || d.Write != NoWrite {
				t.Errorf("agent read-only = %v %+v, want an unwritten commit", commit, d)
			}
			if commit, d := ag.Decide(VoteNo); commit || d.Write != r.agentAbort || d.Acked != r.ackAbort {
				t.Errorf("agent no = %v %+v, want abort written %v, held %v", commit, d, r.agentAbort, r.ackAbort)
			}
		})
	}
}

// A resource that fails to prepare is a no, and the resources after a
// no are not asked; completion reports a heuristic decision once and
// names the node.
func TestPrepareAllCompleteAll(t *testing.T) {
	tx := TxID{Origin: "c", Seq: 1}
	ro := NewStaticResource("ro", StaticVote(VoteReadOnly))
	if got := PrepareAll([]Resource{ro, ro}, tx); got.Vote != VoteReadOnly {
		t.Errorf("all read-only = %+v", got)
	}
	no := NewStaticResource("no", StaticVote(VoteNo))
	later := NewStaticResource("later")
	if got := PrepareAll([]Resource{ro, no, later}, tx); got.Vote != VoteNo || later.Prepared(tx) {
		t.Errorf("after a no = %+v, later prepared %v", got, later.Prepared(tx))
	}
	yes := NewStaticResource("yes")
	if got := PrepareAll([]Resource{ro, yes}, tx); got.Vote != VoteYes {
		t.Errorf("read-only and yes = %+v", got)
	}
	_ = yes.HeuristicDecide(tx, false)
	heur := CompleteAll([]Resource{ro, yes}, tx, true, "N")
	if len(heur) != 1 || heur[0] != (HeuristicReport{Node: "N", Committed: false, Damage: true}) {
		t.Errorf("heuristic reports = %+v", heur)
	}
	if again := CompleteAll([]Resource{yes}, tx, true, "N"); len(again) != 0 {
		t.Errorf("a reported heuristic decision is reported again: %+v", again)
	}
}
