package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// staticLeases runs the n static leases of camp's current generation,
// each on a coordinator built by newCamp (as n separate processes
// would), into dir, and returns the lease files.
func staticLeases(t *testing.T, newCamp func() Campaign, executors map[string]Executor, dir string, n int) []string {
	t.Helper()
	var files []string
	for i := 0; i < n; i++ {
		c, err := NewCoordinator(newCamp(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		path := LeaseFile(dir, c.Plan(), i, n)
		if _, err := c.RunLease(executors, i, n, path); err != nil {
			t.Fatalf("lease %d/%d: %v", i, n, err)
		}
		files = append(files, path)
	}
	return files
}

// TestStaticLeasesByteIdentical: a profile plan run as 1, 2 and 3
// static leases and merged through the completion path saves a store
// byte-identical to the single-process sweep's, and a lease file
// merged twice is deduplicated, not double-counted.
func TestStaticLeasesByteIdentical(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("static", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	const tag = "statictag"
	kernels := map[string]*trace.Kernel{k.Name: k}

	want, err := profile.Sweep(cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	if err := (profile.Store{Dir: refDir}).Save(tag, want); err != nil {
		t.Fatal(err)
	}
	newCamp := func() Campaign { return ProfileCampaign{Plan: profile.BuildPlan(tag, cfg, k, opts)} }

	for _, n := range []int{1, 2, 3} {
		files := staticLeases(t, newCamp, profileExecutors(kernels, opts), t.TempDir(), n)
		files = append(files, files[0]) // a retried copy: first result wins
		c, err := NewCoordinator(newCamp(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, done, err := c.MergeLeases(files)
		if err != nil || !done {
			t.Fatalf("n=%d: merge: done %v, %v", n, done, err)
		}
		if st := c.Stats(); st.Duplicates == 0 || st.Rejected != 0 {
			t.Fatalf("n=%d: stats %+v: the repeated lease must count as duplicates", n, st)
		}
		dir := t.TempDir()
		if _, err := SaveProfiles(profile.Store{Dir: dir}, res); err != nil {
			t.Fatal(err)
		}
		if ref, got := dirBytes(t, refDir), dirBytes(t, dir); !reflect.DeepEqual(ref, got) {
			t.Fatalf("n=%d: merged static leases differ from the in-process sweep", n)
		}
	}
}

// TestStaticLeaseMergeFailsLoudly: a missing lease, a lease of another
// plan, and a lease whose results are not tasks of the plan each fail
// the merge; a worker whose catalogue drifted from the plan fails in
// Prepare and writes nothing.
func TestStaticLeaseMergeFailsLoudly(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("loud", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 8, StepP: 8}
	kernels := map[string]*trace.Kernel{k.Name: k}
	exec := profileExecutors(kernels, opts)
	newCamp := func() Campaign { return ProfileCampaign{Plan: profile.BuildPlan("a", cfg, k, opts)} }
	otherCamp := func() Campaign { return ProfileCampaign{Plan: profile.BuildPlan("b", cfg, k, opts)} }
	dir := t.TempDir()
	files := staticLeases(t, newCamp, exec, dir, 2)
	other := staticLeases(t, otherCamp, exec, dir, 1)

	merge := func(files ...string) error {
		c, err := NewCoordinator(newCamp(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.MergeLeases(files)
		return err
	}
	if err := merge(files[0]); err == nil || !strings.Contains(err.Error(), "missing lease") {
		t.Fatalf("a merge missing a lease must fail, got %v", err)
	}
	if err := merge(files[0], files[1], other[0]); err == nil || !strings.Contains(err.Error(), "another plan") {
		t.Fatalf("a lease of another plan must be refused, got %v", err)
	}
	// A file claiming the right plan but carrying another plan's
	// results: the board rejects every one of them.
	data, err := os.ReadFile(other[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(newCamp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	forged := filepath.Join(dir, "forged.jsonl")
	hdrEnd := strings.IndexByte(string(data), '\n')
	hdr := strings.Replace(string(data[:hdrEnd]), `"plan":"`, fmt.Sprintf(`"plan":"%s","x":"`, c.Plan()), 1)
	if err := os.WriteFile(forged, []byte(hdr+string(data[hdrEnd:])), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := merge(files[0], files[1], forged); err == nil || !strings.Contains(err.Error(), "not tasks of plan") {
		t.Fatalf("results outside the plan must be refused, got %v", err)
	}
	if err := merge(files...); err != nil {
		t.Fatalf("the complete lease set must merge: %v", err)
	}

	drifted := profileExecutors(map[string]*trace.Kernel{k.Name: testutil.ThrashKernel("loud", 20, 13, 4)}, opts)
	path := LeaseFile(dir, c.Plan(), 0, 1)
	if _, err := c.RunLease(drifted, 0, 1, path); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("a drifted worker must fail in Prepare, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused lease must write nothing (stat: %v)", err)
	}
}

// TestStaticRefineRoundsMatchPrunedSweep drives a staged pruned sweep
// the way the file flow does — emit each round's plan, lease it from
// the plan file in 1, 2 or 3 worker processes, merge into the round
// cache — and requires the assembled store to be byte-identical to
// profile.PrunedSweep's, with one tag for every kernel (poisesim) and
// with a tag per kernel (the experiment harness). After every merge a
// retried merge of the same round is recognised as already merged,
// its leases are refused, and no round is appended twice.
func TestStaticRefineRoundsMatchPrunedSweep(t *testing.T) {
	cfg := testutil.TinyConfig()
	k1 := testutil.ThrashKernel("refineA", 20, 15, 4)
	k2 := testutil.ThrashKernel("refineB", 16, 12, 3)
	opts := profile.SweepOptions{StepN: 2, StepP: 2}
	kernels := []*trace.Kernel{k1, k2}
	exec := profileExecutors(map[string]*trace.Kernel{k1.Name: k1, k2.Name: k2}, opts)

	for name, tags := range map[string]map[string]string{
		"one tag":        {k1.Name: "sweeptag", k2.Name: "sweeptag"},
		"tag per kernel": {k1.Name: "tagA", k2.Name: "tagB"},
	} {
		refDir := t.TempDir()
		for _, k := range kernels {
			want, _, err := profile.PrunedSweep(cfg, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := (profile.Store{Dir: refDir}).Save(tags[k.Name], want); err != nil {
				t.Fatal(err)
			}
		}
		for _, leases := range []int{1, 2, 3} {
			rounds := profile.Store{Dir: t.TempDir()}
			refine := func() *RefineCampaign {
				camp, err := NewRefineCampaign(cfg, kernels, tags, opts, rounds)
				if err != nil {
					t.Fatal(err)
				}
				return camp
			}
			cached := func() int {
				n := 0
				for _, k := range kernels {
					n += len(rounds.LoadRounds(tags[k.Name], k.Name))
				}
				return n
			}
			dir := t.TempDir()
			for round := 0; ; round++ {
				if round == 12 {
					t.Fatalf("%s, %d leases: staged refinement did not converge in 12 rounds", name, leases)
				}
				planPath := filepath.Join(dir, fmt.Sprintf("round%d.jsonl", round))
				if _, done, err := EmitPlan(refine(), planPath); err != nil {
					t.Fatal(err)
				} else if done {
					if round < 2 {
						t.Fatalf("refinement converged after %d rounds, want a coarse and a refine round", round)
					}
					break
				}
				plan, err := gridplan.ReadPlanFile(planPath)
				if err != nil {
					t.Fatal(err)
				}
				files := staticLeases(t, func() Campaign { return ProfileCampaign{Plan: plan} }, exec, dir, leases)
				if refine().Merged(plan) {
					t.Fatalf("round %d counts as merged before its merge", round)
				}
				before := cached()
				c, err := NewCoordinator(refine(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.MergeLeases(files); err != nil {
					t.Fatalf("%s, %d leases, round %d: %v", name, leases, round, err)
				}
				after := cached()
				if after <= before {
					t.Fatalf("merging round %d persisted no round", round)
				}

				retry := refine()
				if !retry.Merged(plan) {
					t.Fatalf("round %d: a retried merge must be recognised as already merged", round)
				}
				rc, err := NewCoordinator(retry, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if rc.Plan() != "" {
					if _, _, err := rc.MergeLeases(files); err == nil {
						t.Fatalf("round %d: leases of a folded round must be refused", round)
					}
				}
				if cached() != after {
					t.Fatalf("a retried merge of round %d appended a round", round)
				}
			}
			camp := refine()
			if _, done, err := EmitPlan(camp, filepath.Join(dir, "final.jsonl")); err != nil || !done {
				t.Fatalf("refinement must be complete: done %v, %v", done, err)
			}
			outDir := t.TempDir()
			if _, err := camp.SaveTo(profile.Store{Dir: outDir}); err != nil {
				t.Fatal(err)
			}
			if ref, got := dirBytes(t, refDir), dirBytes(t, outDir); !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s, %d leases: static refinement store differs from PrunedSweep store", name, leases)
			}
		}
	}
}
