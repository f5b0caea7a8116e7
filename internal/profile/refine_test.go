package profile

import (
	"os"
	"reflect"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// prunedTiny runs a pruned sweep of the shared tiny kernel.
func prunedTiny(t *testing.T) (*Profile, RefineStats) {
	t.Helper()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	pr, stats, err := PrunedSweep(testutil.TinyConfig(), k, SweepOptions{StepN: 2, StepP: 2})
	if err != nil {
		t.Fatal(err)
	}
	return pr, stats
}

func TestPrunedSweepMatchesExhaustiveTuples(t *testing.T) {
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2}
	ex, err := Sweep(testutil.TinyConfig(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	pr, stats := prunedTiny(t)
	if pr.Kernel != ex.Kernel || pr.MaxN != ex.MaxN || pr.Baseline != ex.Baseline {
		t.Fatalf("pruned header %+v differs from exhaustive %+v", pr, ex)
	}
	if g, w := pr.Best(), ex.Best(); g != w {
		t.Fatalf("pruned Best %+v != exhaustive %+v", g, w)
	}
	if g, w := pr.BestDiagonal(), ex.BestDiagonal(); g != w {
		t.Fatalf("pruned BestDiagonal %+v != exhaustive %+v", g, w)
	}
	// Every pruned point must be the exhaustive point, bit for bit.
	for _, pt := range pr.Points {
		if xpt, ok := ex.Lookup(pt.N, pt.P); !ok || xpt != pt {
			t.Fatalf("pruned point %+v differs from exhaustive %+v", pt, xpt)
		}
	}
	if stats.Simulated != len(pr.Points) || stats.GridPoints != len(ex.Points) {
		t.Fatalf("stats %+v inconsistent with profiles (%d pruned, %d exhaustive points)",
			stats, len(pr.Points), len(ex.Points))
	}
	if stats.Rounds < 1 {
		t.Fatalf("stats %+v reports no rounds", stats)
	}
}

// TestRefineRoundsShardIdentical is the composition contract with the
// PR 3 shard substrate: executing every refinement round as 1, 2 or 3
// plan shards and merging must reproduce the in-process pruned sweep
// point for point — so a staged multi-process campaign can never
// diverge from PrunedSweep.
func TestRefineRoundsShardIdentical(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2}
	want, wantStats := prunedTiny(t)

	for _, shards := range []int{1, 2, 3} {
		var all []gridplan.Measurement
		rounds := 0
		for round := 0; ; round++ {
			plan, done, err := BuildRefinePlan("t", cfg, k, opts, round, all)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			var parts [][]gridplan.Measurement
			for i := 0; i < shards; i++ {
				sp, err := gridplan.Shard(plan.Tasks, i, shards)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := RunTasks(cfg, kernelSet(k), sp, opts)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, ms)
			}
			merged, err := gridplan.Merge(parts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := gridplan.VerifyCover(plan.Tasks, merged, "measurement"); err != nil {
				t.Fatal(err)
			}
			if all, err = gridplan.Merge(all, merged); err != nil {
				t.Fatal(err)
			}
			rounds++
		}
		got, err := MergeShards(k.Name, all)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("%d-shard refinement diverged from in-process pruned sweep", shards)
		}
		if rounds != wantStats.Rounds {
			t.Fatalf("%d-shard refinement took %d rounds, in-process took %d", shards, rounds, wantStats.Rounds)
		}
	}
}

// TestLoadOrSweepPrunedResume pins round persistence: a pruned
// LoadOrSweep caches its rounds and final profile; re-running after
// deleting only the final profile resumes from the cached rounds
// without simulating anything (the refinement is already converged,
// so a poisoned kernel proves no simulation happens); and a corrupt
// round file degrades to a clean re-sweep.
func TestLoadOrSweepPrunedResume(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2, Refine: &RefineOptions{}}
	st := Store{Dir: t.TempDir()}

	want, err := st.LoadOrSweep("tag", cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := st.LoadRounds("tag", k.Name)
	if len(rounds) == 0 {
		t.Fatal("pruned LoadOrSweep persisted no rounds")
	}
	// A second call hits the profile cache.
	again, err := st.LoadOrSweep("tag", cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Points, want.Points) {
		t.Fatal("cached pruned profile differs")
	}

	// Delete the final profile but keep the rounds: the resume must
	// reassemble the identical profile purely from the cached rounds,
	// without simulating — proven by handing it a poisoned same-name
	// kernel whose streams differ, so any re-simulation would change
	// the points.
	if err := os.Remove(st.path("tag", k.Name)); err != nil {
		t.Fatal(err)
	}
	poisoned := testutil.ThrashKernel("sweep", 28, 15, 4)
	resumed, err := st.LoadOrSweep("tag", cfg, poisoned, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Points, want.Points) {
		t.Fatal("resumed pruned profile differs from the original (the resume re-simulated?)")
	}

	// Corrupt round 0: the prefix loader stops there, the stale later
	// rounds cannot extend an empty prefix consistently, and the
	// refinement restarts cleanly — same profile, repaired cache.
	if err := os.Remove(st.path("tag", k.Name)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.roundPath("tag", k.Name, 0), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := st.LoadOrSweep("tag", cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repaired.Points, want.Points) {
		t.Fatal("repaired pruned profile differs from the original")
	}
}

func TestBuildRefinePlanDeterministic(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("sweep", 20, 15, 4)
	opts := SweepOptions{StepN: 2, StepP: 2}
	a, doneA, err := BuildRefinePlan("t", cfg, k, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, doneB, err := BuildRefinePlan("t", cfg, k, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doneA || doneB {
		t.Fatal("round 0 cannot be empty")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildRefinePlan is not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Round 0 must include the corners and the coarse diagonal ends.
	keys := map[gridplan.Coord]bool{}
	maxN := cfg.WarpsPerSched
	for _, task := range a.Tasks {
		keys[gridplan.Coord{N: task.N, P: task.P}] = true
	}
	for _, c := range []gridplan.Coord{{N: 1, P: 1}, {N: maxN, P: 1}, {N: maxN, P: maxN}} {
		if !keys[c] {
			t.Fatalf("round 0 misses corner %+v", c)
		}
	}
	// A measurement off the target grid must be rejected, not silently
	// absorbed into the profile.
	if _, _, err := BuildRefinePlan("t", cfg, k, opts, 1,
		[]gridplan.Measurement{{Kernel: k.Name, N: 2, P: 2, IPC: 1}}); err == nil {
		t.Fatal("off-grid prior measurement must error")
	}
}

func kernelSet(k *trace.Kernel) map[string]*trace.Kernel {
	return map[string]*trace.Kernel{k.Name: k}
}
