package live

import "repro/internal/protocol"

// RedoCarrier is an optional protocol.Resource extension for the 1PC fast
// path: a resource that can externalize its prepared write-set as an
// opaque redo payload. The payload rides the subordinate's yes vote
// and is embedded in the coordinator's forced decision record, which
// is what lets the voter skip its own prepare force — after a voter
// crash the coordinator retransmits the outcome with the redo attached
// and a RedoApplier re-installs it.
type RedoCarrier interface {
	RedoPayload(tx protocol.TxID) []byte
}

// RedoApplier is the receiving half of RedoCarrier: it re-applies a
// redo payload delivered with a committed outcome to a resource that
// has no memory of the transaction (the voter crashed between voting
// and the commit's arrival). Unrecognized payloads must be rejected,
// not guessed at.
type RedoApplier interface {
	ApplyRedo(tx protocol.TxID, payload []byte) error
}

// redoPayload folds the redo payloads of every redo-capable local
// resource into the vote's payload. With at most one carrier per node
// (the configurations this repo runs) the concatenation is the
// carrier's own encoding and round-trips through ApplyRedo.
func (p *Participant) redoPayload(tx protocol.TxID) []byte {
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
func (p *Participant) applyRedo(tx protocol.TxID, payload []byte) {
	for _, r := range p.res {
		if ra, ok := r.(RedoApplier); ok {
			_ = ra.ApplyRedo(tx, payload)
		}
	}
}
