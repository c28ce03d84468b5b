package core

import (
	"time"

	"repro/internal/protocol"
)

// armHeuristic schedules this node's heuristic policy for a
// transaction that just entered doubt (prepared, awaiting outcome).
// If the outcome has not arrived when the policy's deadline expires,
// the node completes the transaction unilaterally — trading
// consistency risk for lock availability, as §1 describes commercial
// systems must.
func (n *Node) armHeuristic(c *txCtx) {
	if !n.heuristic.Enabled() {
		return
	}
	c.heurTimerGen++
	gen := c.heurTimerGen
	n.afterTx(c, n.heuristic.After, func(at time.Duration) {
		if c.heurTimerGen != gen {
			return
		}
		switch c.state {
		case stPrepared, stInDoubt, stDelegated:
			n.eng.arriveAt(n, at)
			n.takeHeuristicDecision(c)
		}
	})
}

// disarmHeuristic invalidates any armed heuristic timer (the outcome
// arrived in time).
func (n *Node) disarmHeuristic(c *txCtx) { c.heurTimerGen++ }

// takeHeuristicDecision completes the local subtree unilaterally per
// the node's policy, logging the decision (forced — it must be
// reported reliably even across a crash, §3 PN design goals).
func (n *Node) takeHeuristicDecision(c *txCtx) {
	commit := n.heuristic.Commit
	n.trcState(c.id, "HEURISTIC "+map[bool]string{true: "commit", false: "abort"}[commit])
	n.eng.met.Heuristic(string(n.id), commit)
	n.logTx(c, recHeuristic, recPayload{Coord: c.coord, Commit: commit}, true)

	for i, r := range c.resources {
		if c.resVotes[i].Vote == protocol.VoteReadOnly && n.eng.cfg.Options.ReadOnly {
			continue
		}
		if hc, ok := r.(protocol.HeuristicCapable); ok {
			if err := hc.HeuristicDecide(c.id, commit); err != nil {
				n.trcApp("heuristic decide on " + r.Name() + ": " + err.Error())
			}
		} else if commit {
			_ = r.Commit(c.id)
		} else {
			_ = r.Abort(c.id)
		}
	}
	// Downstream partners are driven to the same unilateral outcome:
	// this node owned their view of the transaction.
	out := protocol.OutcomeMessage(c.id.String(), commit)
	for _, s := range c.orderedSubs() {
		if c.haveCoord && s.id == c.coord {
			continue
		}
		if s.voted && s.vote == protocol.VoteYes {
			n.send(s.id, out)
		}
	}
	c.myHeuristic = &protocol.HeuristicReport{Node: string(n.id), Committed: commit}
	c.state = stHeurDone
	n.trcUnlock(c.id, "released")
}

// resolveHeuristic runs when the true outcome finally reaches a node
// that already decided unilaterally: the disagreement (if any) is
// heuristic damage, reported upstream in the acknowledgment. The
// coordinator needed that ack anyway; with PN the report travels all
// the way to the root, with PA it stops at the immediate coordinator.
func (n *Node) resolveHeuristic(c *txCtx, commit bool) {
	if c.myHeuristic == nil {
		return
	}
	rep := *c.myHeuristic
	rep.Damage = rep.Committed != commit
	if rep.Damage {
		n.eng.met.Damage(string(n.id))
		n.trcApp("HEURISTIC DAMAGE: decided " + outcomeWord(rep.Committed) + ", outcome " + outcomeWord(commit))
	}
	c.status.Heuristics = append(c.status.Heuristics, rep)
	c.decided = true
	c.decisionCommit = commit
	n.trcDecision(c, commit)

	// Acknowledge with the report (aborts under PA are normally not
	// acked, but a heuristic conflict must be surfaced: the paper's
	// protocols always report damage to the immediate coordinator).
	if c.haveCoord {
		m := n.ackMessage(c)
		if !n.eng.cfg.Variant.HeuristicsToRoot() && rep.Damage {
			// Without propagation (all but PN), ensure the immediate
			// coordinator sees it even so.
			m.Heuristics = []protocol.HeuristicReport{rep}
		}
		n.send(c.coord, m)
		c.ackSent = true
	}
	n.writeEndAndForget(c)
}

func outcomeWord(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}
