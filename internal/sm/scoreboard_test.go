package sm

import (
	"math/rand"
	"reflect"
	"testing"

	"poise/internal/snap"
)

// refWarp is the reference scoreboard: every CanIssue and NextWake
// walks Pend, lazily retiring returned hits and compacting finished
// entries. It is the direct definition the cached scoreboard must
// match.
type refWarp struct {
	Active  bool
	FlatIdx int64
	ReadyAt int64
	Pend    []Pending
}

func (w *refWarp) ResolveToken(token int64) bool {
	for i := range w.Pend {
		if w.Pend[i].Token == token {
			w.Pend[i].Done = true
			return true
		}
	}
	return false
}

func (w *refWarp) depBlocked(now int64) bool {
	blocked := false
	live := w.Pend[:0]
	for i := range w.Pend {
		p := w.Pend[i]
		if !p.Done && p.RetCycle != 0 && p.RetCycle <= now {
			p.Done = true
		}
		if p.Done {
			continue
		}
		if w.FlatIdx >= p.DepFlat {
			blocked = true
		}
		live = append(live, p)
	}
	w.Pend = live
	return blocked
}

func (w *refWarp) CanIssue(now int64) bool {
	if !w.Active || now < w.ReadyAt {
		return false
	}
	if len(w.Pend) == 0 {
		return true
	}
	return !w.depBlocked(now)
}

func (w *refWarp) NextWake(now int64) int64 {
	if !w.Active {
		return NoDep
	}
	wake := w.ReadyAt
	if wake <= now {
		wake = now + 1
	}
	if len(w.Pend) == 0 {
		return wake
	}
	if !w.depBlocked(now) {
		return wake
	}
	earliest := NoDep
	for i := range w.Pend {
		p := &w.Pend[i]
		if p.Done || w.FlatIdx < p.DepFlat {
			continue
		}
		if p.RetCycle == 0 {
			return NoDep
		}
		if p.RetCycle < earliest {
			earliest = p.RetCycle
		}
	}
	if earliest < wake {
		return wake
	}
	return earliest
}

// checkCache requires the cached depUntil to equal a fresh
// recomputation from Pend and FlatIdx.
func checkCache(t *testing.T, step int, w *Warp) {
	t.Helper()
	fresh := *w
	fresh.refresh()
	if fresh.depUntil != w.depUntil {
		t.Fatalf("step %d: cached depUntil %d is stale, recomputed %d; warp %+v",
			step, w.depUntil, fresh.depUntil, *w)
	}
}

// TestScoreboardMatchesRescan drives the cached scoreboard and the
// rescanning reference through random sequences of hit, miss and
// replay registrations, advances, token resolutions, compactions,
// pipeline stalls and clock steps, and requires CanIssue and NextWake
// to agree at every step.
func TestScoreboardMatchesRescan(t *testing.T) {
	const bodyLen = 7
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := Warp{Active: true, TotalIters: 1 << 30}
		ref := refWarp{Active: true}
		var outstanding []int64 // miss and replay tokens not yet resolved
		now := int64(rng.Intn(5))
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1: // L1 hit
				p := Pending{
					Token:    w.NewToken(),
					DepFlat:  w.FlatIdx + int64(rng.Intn(5)),
					RetCycle: now + 1 + int64(rng.Intn(40)),
				}
				w.AddPending(p)
				ref.Pend = append(ref.Pend, p)
			case 2: // miss
				p := Pending{Token: w.NewToken(), DepFlat: w.FlatIdx + 1 + int64(rng.Intn(5))}
				w.AddPending(p)
				ref.Pend = append(ref.Pend, p)
				outstanding = append(outstanding, p.Token)
			case 3: // replay: blocks the current instruction
				p := Pending{Token: w.NewToken(), DepFlat: w.FlatIdx}
				w.AddPending(p)
				ref.Pend = append(ref.Pend, p)
				outstanding = append(outstanding, p.Token)
			case 4, 5: // advance, mostly only when the warp could issue
				if w.CanIssue(now) || rng.Intn(4) == 0 {
					w.Advance(bodyLen, now)
					ref.FlatIdx++
				}
			case 6: // a fill or replay admission resolves a token
				if len(outstanding) > 0 {
					i := rng.Intn(len(outstanding))
					tok := outstanding[i]
					outstanding = append(outstanding[:i], outstanding[i+1:]...)
					if !w.ResolveToken(tok) || !ref.ResolveToken(tok) {
						t.Fatalf("seed %d step %d: token %d not found", seed, step, tok)
					}
				}
			case 7:
				w.compact(now)
			case 8: // pipeline or ALU stall
				w.ReadyAt = now + int64(rng.Intn(6))
				ref.ReadyAt = w.ReadyAt
			case 9:
				now += int64(rng.Intn(30))
			}
			checkCache(t, step, &w)
			if got, want := w.CanIssue(now), ref.CanIssue(now); got != want {
				t.Fatalf("seed %d step %d now %d: CanIssue = %v, reference %v; warp %+v",
					seed, step, now, got, want, w)
			}
			if got, want := w.NextWake(now), ref.NextWake(now); got != want {
				t.Fatalf("seed %d step %d now %d: NextWake = %d, reference %d; warp %+v",
					seed, step, now, got, want, w)
			}
		}
	}
}

// TestWarpSnapshotRoundTrip encodes a warp mid-kernel with L1 hits,
// misses and a resolved miss outstanding, and requires the decoded
// warp to be identical, the derived scoreboard cache included. Reset
// must then zero the warp, cache included.
func TestWarpSnapshotRoundTrip(t *testing.T) {
	w := Warp{Active: true, Global: 7, Block: 2, WarpInBlk: 1, TotalIters: 4,
		ReadyAt: 103, Age: 3, Vital: true, Pollute: true}
	for i := 0; i < 5; i++ {
		w.Advance(6, 100)
	}
	w.AddPending(Pending{Token: w.NewToken(), DepFlat: w.FlatIdx, RetCycle: 128})
	w.AddPending(Pending{Token: w.NewToken(), DepFlat: w.FlatIdx + 2, RetCycle: 130})
	miss := w.NewToken()
	w.AddPending(Pending{Token: miss, DepFlat: w.FlatIdx + 3})
	w.AddPending(Pending{Token: w.NewToken(), DepFlat: w.FlatIdx + 4})
	w.ResolveToken(miss)
	if w.depUntil != 128 {
		t.Fatalf("setup: depUntil %d, want 128", w.depUntil)
	}

	enc := snap.NewWriter()
	w.encodeState(enc)
	var got Warp
	if err := got.decodeState(snap.NewReader(enc.Data())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("decoded warp differs:\n got %+v\nwant %+v", got, w)
	}

	// A decoded warp must also block like the original.
	if got.CanIssue(120) || !got.CanIssue(128) {
		t.Fatal("decoded warp must stay blocked until its hit returns")
	}
	var idle Warp
	enc = snap.NewWriter()
	idle.encodeState(enc)
	if err := got.decodeState(snap.NewReader(enc.Data())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, idle) {
		t.Fatalf("decoding an empty slot must leave the zero warp, got %+v", got)
	}

	// The GPU pool needs Reset to clear the cache with everything else.
	w.Reset()
	if !reflect.DeepEqual(w, Warp{}) {
		t.Fatalf("Reset left %+v", w)
	}
}

// TestReplayLoopKeepsPendBounded replays one load many times, as a
// warp facing a full MSHR file does: each attempt adds a token that a
// later fill resolves, and the warp never issues in between. The
// resolved tokens must not pile up in Pend.
func TestReplayLoopKeepsPendBounded(t *testing.T) {
	w := Warp{Active: true, FlatIdx: 4}
	w.AddPending(Pending{Token: w.NewToken(), DepFlat: 6, RetCycle: 50})
	for i := 0; i < 100; i++ {
		tok := w.NewToken()
		w.AddPending(Pending{Token: tok, DepFlat: w.FlatIdx})
		if w.CanIssue(10) {
			t.Fatal("a parked replay must block the warp")
		}
		w.ResolveToken(tok)
	}
	if len(w.Pend) > 4 {
		t.Fatalf("Pend grew to %d entries over 100 replays", len(w.Pend))
	}
	if !w.CanIssue(10) {
		t.Fatal("the last replay token resolved, so the warp may retry")
	}
}
