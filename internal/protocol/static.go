package protocol

import (
	"sync"
)

// StaticResource is a lightweight resource manager with a fixed vote
// and fixed attributes. The table benchmarks use it so that only
// transaction-manager log records are counted, matching the paper's
// accounting model; tests use it to script votes and observe
// outcomes.
type StaticResource struct {
	name         string
	vote         VoteValue
	reliable     bool
	okToLeaveOut bool
	prepareErr   error

	mu        sync.Mutex
	prepared  map[TxID]bool
	outcome   map[TxID]bool // tx -> committed?
	heuristic map[TxID]bool // tx -> heuristically committed?
}

// StaticOption configures a StaticResource.
type StaticOption func(*StaticResource)

// StaticVote fixes the resource's vote (default VoteYes).
func StaticVote(v VoteValue) StaticOption { return func(r *StaticResource) { r.vote = v } }

// StaticReliable marks the resource reliable (§4 Vote Reliable).
func StaticReliable() StaticOption { return func(r *StaticResource) { r.reliable = true } }

// StaticLeaveOut marks the resource OK-to-leave-out (§4 Leave-Out).
func StaticLeaveOut() StaticOption { return func(r *StaticResource) { r.okToLeaveOut = true } }

// StaticPrepareError makes Prepare fail with err (an implicit NO).
func StaticPrepareError(err error) StaticOption {
	return func(r *StaticResource) { r.prepareErr = err }
}

// NewStaticResource returns a resource named name that votes yes
// unless configured otherwise.
func NewStaticResource(name string, opts ...StaticOption) *StaticResource {
	r := &StaticResource{
		name:      name,
		vote:      VoteYes,
		prepared:  make(map[TxID]bool),
		outcome:   make(map[TxID]bool),
		heuristic: make(map[TxID]bool),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Name implements Resource.
func (r *StaticResource) Name() string { return r.name }

// Prepare implements Resource with the configured vote.
func (r *StaticResource) Prepare(tx TxID) (PrepareResult, error) {
	if r.prepareErr != nil {
		return PrepareResult{}, r.prepareErr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.vote == VoteYes {
		r.prepared[tx] = true
	}
	return PrepareResult{Vote: r.vote, Reliable: r.reliable, OKToLeaveOut: r.okToLeaveOut}, nil
}

// Commit implements Resource.
func (r *StaticResource) Commit(tx TxID) error { return r.finish(tx, true) }

// Abort implements Resource.
func (r *StaticResource) Abort(tx TxID) error { return r.finish(tx, false) }

func (r *StaticResource) finish(tx TxID, commit bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, heur := r.heuristic[tx]; heur {
		return ErrHeuristicConflict
	}
	r.outcome[tx] = commit
	delete(r.prepared, tx)
	return nil
}

// HeuristicDecide implements HeuristicCapable.
func (r *StaticResource) HeuristicDecide(tx TxID, commit bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.heuristic[tx] = commit
	delete(r.prepared, tx)
	return nil
}

// HeuristicTaken implements HeuristicCapable.
func (r *StaticResource) HeuristicTaken(tx TxID) (taken, committed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.heuristic[tx]
	return ok, c
}

// Forget clears the heuristic record after damage reporting.
func (r *StaticResource) Forget(tx TxID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.heuristic, tx)
}

// Outcome reports the outcome delivered to this resource for tx.
func (r *StaticResource) Outcome(tx TxID) (committed, known bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.outcome[tx]
	return c, ok
}

// Prepared reports whether tx is currently prepared (in doubt) here.
func (r *StaticResource) Prepared(tx TxID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prepared[tx]
}
