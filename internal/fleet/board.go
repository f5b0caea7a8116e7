package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// unit is one leasable task: its identity key and its serialised plan
// line, carried opaquely so the board schedules profile tasks and
// experiment cells with the same machinery.
type unit struct {
	key  string
	line json.RawMessage
}

// Key makes units gridplan.Keyed, so a static lease is exactly
// gridplan.Shard's i-of-n hand of the generation.
func (u unit) Key() string { return u.key }

// lease is one worker's in-flight batch. pending keeps grant order:
// workers execute front to back, so the tail holds the tasks least
// likely to have started — the steal policy takes from there.
type lease struct {
	id       string
	worker   string
	deadline time.Time
	pending  []unit
}

// board is the coordinator's scheduling state for one plan generation:
// the generation's units, a queue of unassigned ones, the live leases,
// and the accepted results. It is a plain state machine — the
// coordinator serialises access under its mutex — with the clock
// passed in, so unit tests drive expiry deterministically.
type board struct {
	opts    Options
	units   []unit // every unit of the generation, key order; never mutated
	queue   []unit
	leases  map[string]*lease
	results map[string]json.RawMessage
	nextID  int
	stats   *Stats
}

func newBoard(units []unit, opts Options, stats *Stats) *board {
	sorted := append([]unit(nil), units...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	return &board{
		opts:    opts,
		units:   sorted,
		queue:   append([]unit(nil), sorted...),
		leases:  map[string]*lease{},
		results: make(map[string]json.RawMessage, len(sorted)),
		stats:   stats,
	}
}

// has reports whether key is a task of this generation.
func (b *board) has(key string) bool {
	i := sort.Search(len(b.units), func(i int) bool { return b.units[i].key >= key })
	return i < len(b.units) && b.units[i].key == key
}

// expire requeues every lease whose deadline has passed. Expiry is
// driven lazily from grant and complete — idle workers poll for
// leases, so a dead worker's tasks return as soon as anyone is free
// to take them.
func (b *board) expire(now time.Time) {
	for id, l := range b.leases {
		if now.After(l.deadline) {
			b.opts.Logf("fleet: lease %s (worker %s) expired with %d tasks pending", id, l.worker, len(l.pending))
			b.stats.Expired++
			b.requeue(l.pending)
			delete(b.leases, id)
		}
	}
}

func (b *board) requeue(units []unit) {
	b.queue = append(b.queue, units...)
	sort.Slice(b.queue, func(i, j int) bool { return b.queue[i].key < b.queue[j].key })
}

// grant hands the requesting worker its next batch: from the queue
// when it has units, otherwise by stealing the tail half of the
// largest lease holding at least StealMin pending tasks. It returns
// nil when there is nothing to grant right now (the worker should
// poll again — tasks may come back via expiry) and false when the
// generation is complete.
func (b *board) grant(worker string, now time.Time) (*lease, bool) {
	b.expire(now)
	if b.done() {
		return nil, false
	}
	var units []unit
	stolen := false
	if len(b.queue) > 0 {
		n := b.opts.LeaseTasks
		if n > len(b.queue) {
			n = len(b.queue)
		}
		units = append(units, b.queue[:n]...)
		b.queue = append([]unit(nil), b.queue[n:]...)
	} else if victim := b.stealVictim(); victim != nil {
		n := len(victim.pending) / 2
		if n < 1 {
			n = 1
		}
		cut := len(victim.pending) - n
		units = append(units, victim.pending[cut:]...)
		victim.pending = victim.pending[:cut]
		stolen = true
		b.stats.StolenBatches++
		b.stats.StolenTasks += n
		b.opts.Logf("fleet: stole %d tasks from lease %s (worker %s) for %s", n, victim.id, victim.worker, worker)
	} else {
		return nil, true
	}
	b.nextID++
	l := &lease{
		id:       fmt.Sprintf("L%d", b.nextID),
		worker:   worker,
		deadline: now.Add(b.opts.LeaseTTL),
		pending:  units,
	}
	b.leases[l.id] = l
	b.stats.Granted++
	if !stolen {
		b.opts.Logf("fleet: lease %s: %d tasks to %s (%d queued, %d done of %d)",
			l.id, len(units), worker, len(b.queue), len(b.results), len(b.units))
	}
	return l, true
}

// stealVictim picks the lease with the most pending tasks (ties
// broken by lease id, so the choice is deterministic), provided it
// holds at least StealMin. A worker's own stale lease is as good a
// victim as any other — stealing from it just reclaims abandoned
// work.
func (b *board) stealVictim() *lease {
	var victim *lease
	for _, l := range b.leases {
		if len(l.pending) < b.opts.StealMin {
			continue
		}
		if victim == nil || len(l.pending) > len(victim.pending) ||
			(len(l.pending) == len(victim.pending) && l.id < victim.id) {
			victim = l
		}
	}
	return victim
}

// complete records one task result and reports whether key is a task
// of this generation. A key outside the generation (a stale or forged
// result) is counted in Stats.Rejected and changes nothing, so it can
// never stand in for a missing task. The first result for a key wins;
// later ones (steal races, transport retries) are counted and
// dropped — identical by determinism, so the choice cannot change the
// merged output. The key is removed from every lease's pending set,
// so a worker finishing a task another worker stole settles the race
// for both. The completing lease's deadline renews when it still
// exists.
func (b *board) complete(leaseID, key string, data json.RawMessage, now time.Time) bool {
	if !b.has(key) {
		b.stats.Rejected++
		b.opts.Logf("fleet: rejected result %s: not a task of this generation", key)
		return false
	}
	if _, dup := b.results[key]; dup {
		b.stats.Duplicates++
	} else {
		b.results[key] = data
	}
	for _, l := range b.leases {
		for i, u := range l.pending {
			if u.key == key {
				l.pending = append(l.pending[:i:i], l.pending[i+1:]...)
				break
			}
		}
	}
	if l, ok := b.leases[leaseID]; ok {
		l.deadline = now.Add(b.opts.LeaseTTL)
		if len(l.pending) == 0 {
			delete(b.leases, leaseID)
		}
	}
	b.expire(now)
	return true
}

// owned returns the keys a lease still holds, in grant order, or nil
// when the lease no longer exists. Workers intersect their remaining
// work with it after every completion, so stolen tasks are skipped
// instead of run twice.
func (b *board) owned(leaseID string) ([]string, bool) {
	l, ok := b.leases[leaseID]
	if !ok {
		return nil, false
	}
	keys := make([]string, len(l.pending))
	for i, u := range l.pending {
		keys[i] = u.key
	}
	return keys, true
}

// done reports whether every task of the generation has a result;
// complete admits only the generation's own keys, so the count is
// exact.
func (b *board) done() bool { return len(b.results) == len(b.units) }

// missing returns the tasks that have no result yet, in key order.
func (b *board) missing() []string {
	var keys []string
	for _, u := range b.units {
		if _, ok := b.results[u.key]; !ok {
			keys = append(keys, u.key)
		}
	}
	return keys
}

// finish returns the generation's results in key order, the canonical
// order of every merge.
func (b *board) finish() []Result {
	keys := make([]string, 0, len(b.results))
	for k := range b.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Result, len(keys))
	for i, k := range keys {
		out[i] = Result{Key: k, Data: b.results[k]}
	}
	return out
}
