// Package sm models a streaming multiprocessor: warp contexts with
// load/use scoreboarding, the greedy-then-oldest (GTO) warp schedulers,
// and the vital/pollute bit mechanism of the modified scheduler in
// paper §VI-C. Instruction execution and memory timing live in package
// sim; this package owns warp state and arbitration.
package sm

import "math"

// NoDep marks a warp with no outstanding load dependency.
const NoDep = int64(math.MaxInt64)

// Pending tracks one outstanding load of a warp.
type Pending struct {
	Token    int64 // per-warp monotonic id, referenced by MSHR waiters
	DepFlat  int64 // flattened instruction index of the dependent use
	RetCycle int64 // known return cycle for L1 hits; 0 while a miss is outstanding
	Done     bool
}

// Warp is one warp context in a scheduler slot.
type Warp struct {
	Active bool // slot occupied by a live warp

	Global    int32 // global warp id (unique in the launch)
	Block     int32
	WarpInBlk int32

	Iter       int32 // current loop iteration
	TotalIters int32
	BodyIdx    int32 // next instruction within the body
	FlatIdx    int64 // Iter*len(body)+BodyIdx, used for dependences

	ReadyAt int64 // earliest cycle the warp may issue (pipeline/replay)
	Age     int64 // dispatch order; smaller = older (GTO priority)

	Vital   bool // may be scheduled (one of the N oldest)
	Pollute bool // loads may allocate in L1 (one of the p oldest)

	Pend     []Pending
	tokenSeq int64

	// depUntil caches the scoreboard: the first cycle at which every
	// operand of the next instruction is available. A pending entry is
	// relevant when FlatIdx >= DepFlat (the next instruction uses its
	// data). depUntil is 0 when no relevant entry is undone, NoDep
	// while a relevant miss or replay token is outstanding, and else
	// the latest RetCycle of the relevant L1 hits. It is a pure
	// function of Pend and FlatIdx, refreshed by every method that
	// changes either: AddPending, ResolveToken, Advance (through
	// compact) and decodeState.
	depUntil int64
}

// NewToken mints a load token for this warp.
func (w *Warp) NewToken() int64 {
	w.tokenSeq++
	return w.tokenSeq
}

// AddPending registers an outstanding load. A load that replays adds
// an entry per attempt without issuing, so before the list would grow
// it drops its resolved entries; every hit has RetCycle > 0, so
// compact(0) keeps all of them.
func (w *Warp) AddPending(p Pending) {
	if len(w.Pend) == cap(w.Pend) {
		w.compact(0)
	}
	w.Pend = append(w.Pend, p)
	if w.FlatIdx >= p.DepFlat {
		w.depUntil = blockUntil(w.depUntil, p)
	}
}

// blockUntil folds one undone relevant entry into a depUntil value.
func blockUntil(until int64, p Pending) int64 {
	if p.RetCycle == 0 {
		return NoDep
	}
	return max(until, p.RetCycle)
}

// ResolveToken marks the pending load with the given token complete.
// It reports whether the token was found.
func (w *Warp) ResolveToken(token int64) bool {
	for i := range w.Pend {
		p := &w.Pend[i]
		if p.Token == token {
			p.Done = true
			if w.FlatIdx >= p.DepFlat {
				w.refresh()
			}
			return true
		}
	}
	return false
}

// refresh recomputes depUntil from Pend and FlatIdx.
func (w *Warp) refresh() {
	w.depUntil = 0
	for _, p := range w.Pend {
		if !p.Done && w.FlatIdx >= p.DepFlat {
			w.depUntil = blockUntil(w.depUntil, p)
		}
	}
}

// compact drops the entries that are finished at cycle now (resolved
// misses and replays, L1 hits whose data has returned) and refreshes
// depUntil. Time only moves forward, so a dropped hit could never
// block again.
func (w *Warp) compact(now int64) {
	live := w.Pend[:0]
	for _, p := range w.Pend {
		if !p.Done && (p.RetCycle == 0 || p.RetCycle > now) {
			live = append(live, p)
		}
	}
	w.Pend = live
	w.refresh()
}

// CanIssue reports whether the warp may issue at cycle now. Vitality is
// checked by the scheduler, not here.
func (w *Warp) CanIssue(now int64) bool {
	return w.Active && now >= w.ReadyAt && now >= w.depUntil
}

// NextWake returns the earliest future cycle at which this warp could
// become issueable again, or NoDep if that depends on an MSHR fill
// event (unknown here). Used by the simulator's idle skip-ahead.
func (w *Warp) NextWake(now int64) int64 {
	if !w.Active {
		return NoDep
	}
	wake := w.ReadyAt
	if wake <= now {
		wake = now + 1
	}
	if now >= w.depUntil {
		return wake
	}
	if w.depUntil == NoDep {
		return NoDep // miss outstanding: an MSHR event will wake us
	}
	// Blocked on L1 hits: the earliest one still in flight.
	earliest := NoDep
	for _, p := range w.Pend {
		if !p.Done && w.FlatIdx >= p.DepFlat && p.RetCycle > now && p.RetCycle < earliest {
			earliest = p.RetCycle
		}
	}
	return max(wake, earliest)
}

// Advance moves the warp past the instruction it just issued at cycle
// now; bodyLen is the kernel body length. It reports whether the warp
// just finished its last instruction. Finished scoreboard entries are
// dropped here, once per issued instruction.
func (w *Warp) Advance(bodyLen int, now int64) bool {
	w.BodyIdx++
	w.FlatIdx++
	if len(w.Pend) > 0 {
		w.compact(now)
	}
	if int(w.BodyIdx) >= bodyLen {
		w.BodyIdx = 0
		w.Iter++
		if w.Iter >= w.TotalIters {
			return true
		}
	}
	return false
}

// Reset clears the slot for reuse.
func (w *Warp) Reset() {
	*w = Warp{}
}
