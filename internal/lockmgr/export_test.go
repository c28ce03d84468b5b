package lockmgr

import "fmt"

// stateCount counts the lock states in the table, shard by shard, and
// fails if any of them is idle: a state with no holder and no waiter
// must have been freed, so finding one is a leak.
func (m *Manager) stateCount() (int, error) {
	n := 0
	for i, sh := range m.shards {
		sh.mu.Lock()
		for key, ls := range sh.locks {
			if len(ls.holders) == 0 && len(ls.queue) == 0 {
				sh.mu.Unlock()
				return 0, fmt.Errorf("shard %d keeps idle state for %q", i, key)
			}
		}
		n += len(sh.locks)
		sh.mu.Unlock()
	}
	return n, nil
}

// stateFor returns key's lock state, or nil when the key is not in
// the table.
func (m *Manager) stateFor(key string) *lockState {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.locks[key]
}
