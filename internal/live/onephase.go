package live

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/wal"
)

// RedoCarrier is an optional core.Resource extension for the 1PC fast
// path: a resource that can externalize its prepared write-set as an
// opaque redo payload. The payload rides the subordinate's yes vote
// and is embedded in the coordinator's forced decision record, which
// is what lets the voter skip its own prepare force — after a voter
// crash the coordinator retransmits the outcome with the redo attached
// and a RedoApplier re-installs it.
type RedoCarrier interface {
	RedoPayload(tx core.TxID) []byte
}

// RedoApplier is the receiving half of RedoCarrier: it re-applies a
// redo payload delivered with a committed outcome to a resource that
// has no memory of the transaction (the voter crashed between voting
// and the commit's arrival). Unrecognized payloads must be rejected,
// not guessed at.
type RedoApplier interface {
	ApplyRedo(tx core.TxID, payload []byte) error
}

// redoPayload folds the redo payloads of every redo-capable local
// resource into the vote's payload. With at most one carrier per node
// (the configurations this repo runs) the concatenation is the
// carrier's own encoding and round-trips through ApplyRedo.
func (p *Participant) redoPayload(tx core.TxID) []byte {
	var out []byte
	for _, r := range p.res {
		if rc, ok := r.(RedoCarrier); ok {
			out = append(out, rc.RedoPayload(tx)...)
		}
	}
	return out
}

// applyRedo hands a commit-borne redo payload to every redo-capable
// local resource (best effort: a resource that still remembers the
// transaction ignores it via its own idempotence).
func (p *Participant) applyRedo(tx core.TxID, payload []byte) {
	for _, r := range p.res {
		if ra, ok := r.(RedoApplier); ok {
			_ = ra.ApplyRedo(tx, payload)
		}
	}
}

// runOnePhase drives the logless one-phase fast path (Variant1PC) as
// coordinator. The protocol's shape:
//
//   - Prepares go out announcing Presume1PC; each leaf answers its yes
//     vote with NOTHING forced, carrying its redo payload instead.
//   - On unanimous yes the coordinator forces ONE record — Committed,
//     naming the yes-voters and embedding their redos. That record is
//     the only stable state in the whole tree: every voter's
//     durability is delegated to it.
//   - Commit messages go out and the call returns. Acknowledgment
//     collection (with retransmission) continues in the background off
//     the caller's critical path — the latency a baseline commit
//     spends on the voter's prepare force and the ack round is gone.
//   - Absence of the decision record presumes abort (PA-style), which
//     is what makes voter amnesia safe: a restarted voter knows
//     nothing, and either the presumption aborts it or the
//     coordinator's retransmitted Commit (carrying the redo)
//     completes it.
func (p *Participant) runOnePhase(ctx context.Context, txName string, subs []string) (Outcome, error) {
	const v = core.Variant1PC
	tx := core.ParseTxID(txName)
	st := p.registerCoord(txName, len(subs))
	keepReg := false
	defer func() {
		if !keepReg {
			p.unregisterCoord(txName)
		}
	}()
	if p.met != nil {
		p.met.CostBegin(txName, p.name, v.String(), len(subs))
	}

	// Harvest unsolicited votes that arrived before Commit was called.
	sh := p.shardFor(txName)
	sh.mu.Lock()
	early := st.early
	st.early = nil
	sh.mu.Unlock()

	voted := make([]bool, len(subs))
	votedN := 0
	yes := make([]string, 0, len(subs))
	redos := make([][]byte, 0, len(subs))
	for i, s := range subs {
		ev, ok := early[s]
		if !ok {
			continue
		}
		voted[i] = true
		votedN++
		switch ev {
		case protocol.VoteNo:
			return p.abortTx(tx, txName, subs, v), nil
		case protocol.VoteYes:
			// An unsolicited volunteer forced its own Prepared record
			// before any Prepare announced the variant, so it carries no
			// redo and needs none.
			yes = append(yes, s)
			redos = append(redos, nil)
		}
	}

	prep := protocol.Message{Type: protocol.MsgPrepare, Tx: txName, Presume: core.Variant1PC}
	for i, s := range subs {
		if voted[i] {
			continue
		}
		if err := p.send(s, prep); err != nil {
			return p.abortTx(tx, txName, subs, v), fmt.Errorf("live: prepare %s: %w", s, err)
		}
	}

	localVote := p.prepareLocal(tx)
	if localVote == protocol.VoteNo {
		return p.abortTx(tx, txName, subs, v), nil
	}

	if votedN < len(subs) {
		alarm := p.newRetryAlarm(p.voteTimeout, txName, "")
		defer alarm.stop()
		for votedN < len(subs) {
			select {
			case env := <-st.replies:
				i := indexOf(subs, env.from)
				if i < 0 || voted[i] || env.msg.Type != protocol.MsgVote {
					continue
				}
				voted[i] = true
				votedN++
				switch env.msg.Vote {
				case protocol.VoteNo:
					return p.abortTx(tx, txName, subs, v), nil
				case protocol.VoteYes:
					yes = append(yes, env.from)
					redos = append(redos, env.msg.Payload)
				}
			case <-alarm.C():
				if alarm.expired() {
					return p.abortTx(tx, txName, subs, v), fmt.Errorf("live: collecting votes for %s: %w", txName, ErrTimeout)
				}
				for i, s := range subs {
					if !voted[i] {
						_ = p.sendExtra(s, prep)
						p.countRetry()
					}
				}
			case <-p.crashc:
				return InDoubt, ErrCrashed
			case <-ctx.Done():
				return p.abortTx(tx, txName, subs, v), ctx.Err()
			}
		}
	}

	// The decision. A fully read-only transaction commits with nothing
	// to log (§4 Read-Only); otherwise the forced record below is the
	// whole tree's durability.
	var rec wal.Record
	if !(localVote == protocol.VoteReadOnly && len(yes) == 0) {
		rec = wal.Record{Tx: txName, Node: p.name, Kind: "Committed",
			Data: protocol.OnePhaseMeta{Subs: yes, Redos: redos}.Encode()}
		if p.hooks.OnePhaseLazyDecision {
			// Injected bug (TestHooks): writing the tree's only durable
			// record lazily silently voids every voter's delegated
			// durability. The AC3 oracle must convict this.
			_ = p.lazy(rec)
		} else if err := p.force(rec); err != nil {
			// The yes-voters hold locks in memory only; tell them now.
			return p.abortTx(tx, txName, yes, v), fmt.Errorf("live: force commit record: %w", err)
		}
	}
	// The decision record must outlive every voter's ignorance of it:
	// it is their only redo. The entry stays pinned, and End unwritten,
	// until the acks are in.
	p.recordDecision(txName, true, len(yes) > 0)
	if len(yes) > 0 {
		p.setPinRedo(txName, rec.Data)
	}
	p.completeResources(tx, true)
	if p.met != nil {
		p.met.CostOutcome(txName, "committed", len(yes))
	}
	out := protocol.Message{Type: protocol.MsgCommit, Tx: txName}
	for _, s := range yes {
		_ = p.send(s, out)
	}

	if len(yes) == 0 {
		p.endCoord(txName, true)
		return Committed, nil
	}
	// Ack collection leaves the caller's critical path: the commit is
	// durable and announced, so the caller gets control back while the
	// background collector retransmits to stragglers. Voters that never
	// ack resolve through recovery against the decision record.
	keepReg = true
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.unregisterCoord(txName)
		if _, err := p.collectAcks(context.Background(), st, txName, yes, out); err == nil {
			p.endCoord(txName, true)
		}
	}()
	return Committed, nil
}

// PreparedUndecided reports transactions this participant holds
// prepared in MEMORY with no decision — the 1PC voter's in-doubt set,
// invisible to the log-based InDoubtTxs because the logless fast path
// forces nothing at the voter. Chaos harnesses union it with
// InDoubtTxs when driving recovery and building the oracle's final
// state.
func (p *Participant) PreparedUndecided() []string {
	type cand struct {
		tx string
		st *txState
	}
	var cands []cand
	p.forEachState(func(tx string, st *txState) {
		if !st.isCoord {
			cands = append(cands, cand{tx, st})
		}
	})
	var out []string
	for _, c := range cands {
		c.st.mu.Lock()
		if c.st.prepared && !c.st.done {
			out = append(out, c.tx)
		}
		c.st.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
