package profile_test

import (
	"os"
	"reflect"
	"testing"

	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestStoreShardPartialsRoundTrip drives a sweep plan through static
// leases of the fleet (package fleet) into the Store: three lease
// files merged back must give both a cached entry and a Profile
// identical to Sweep's, and a lost lease must fail the merge.
func TestStoreShardPartialsRoundTrip(t *testing.T) {
	st := profile.Store{Dir: t.TempDir()}
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("shardstore", 20, 10, 2)
	opts := profile.SweepOptions{StepN: 6, StepP: 6}
	tag := profile.SweepTag(cfg, opts)

	want, err := profile.Sweep(cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	camp := fleet.ProfileCampaign{Plan: profile.BuildPlan(tag, cfg, k, opts)}
	executors := map[string]fleet.Executor{gridplan.ProfilePlanFormat: fleet.ProfileExecutor{
		Cfg: cfg, Kernels: map[string]*trace.Kernel{k.Name: k}, Opts: opts,
	}}
	dir := t.TempDir()
	const shards = 3
	var files []string
	for i := 0; i < shards; i++ {
		c, err := fleet.NewCoordinator(camp, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		path := fleet.LeaseFile(dir, c.Plan(), i, shards)
		if _, err := c.RunLease(executors, i, shards, path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	merge := func() ([]string, error) {
		c, err := fleet.NewCoordinator(camp, fleet.Options{})
		if err != nil {
			return nil, err
		}
		res, _, err := c.MergeLeases(files)
		if err != nil {
			return nil, err
		}
		return fleet.SaveProfiles(st, res)
	}
	if names, err := merge(); err != nil || !reflect.DeepEqual(names, []string{k.Name}) {
		t.Fatalf("merge saved %v, %v", names, err)
	}
	// The merge must have produced a regular cache entry.
	cached, err := st.Load(tag, k.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, cached) {
		t.Fatal("cached merged profile differs from the in-process sweep")
	}

	// A lost lease fails the merge loudly.
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := merge(); err == nil {
		t.Fatal("merge with a missing lease must fail")
	}
}
