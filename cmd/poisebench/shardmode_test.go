package main

import (
	"strings"
	"testing"

	"poise/internal/experiments"
	"poise/internal/workloads"
)

// TestShardModeRejectsBadRunSelections: the file-based shard flow
// must reject experiment lists and non-grid-backed experiments before
// touching the harness (the nil harness below proves nothing else
// runs), and lease or refinement work without -cache before building
// a campaign.
func TestShardModeRejectsBadRunSelections(t *testing.T) {
	cases := []struct {
		name    string
		run     string
		wantErr string
	}{
		{"experiment list", "fig7,fig11", "single experiment"},
		{"non-grid experiment", "fig2", "not grid-backed"},
		{"unknown experiment", "fig99", "not grid-backed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runShardMode(nil, tc.run, "p.jsonl", "", false)
			if err == nil {
				t.Fatalf("runShardMode(run=%q) = nil, want error containing %q", tc.run, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("runShardMode(run=%q) = %q, want it to contain %q", tc.run, err, tc.wantErr)
			}
		})
	}
	t.Run("no cache", func(t *testing.T) {
		h := experiments.NewHarness(experiments.Options{SMs: 2, Size: workloads.Small})
		for _, mode := range []struct {
			shard string
			merge bool
		}{{"0/2", false}, {"", true}} {
			if err := runShardMode(h, "fig16", "", mode.shard, mode.merge); err == nil || !strings.Contains(err.Error(), "need -cache") {
				t.Fatalf("shard %q merge %v without -cache = %v, want a -cache error", mode.shard, mode.merge, err)
			}
		}
	})
}
