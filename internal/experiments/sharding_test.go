package experiments

import (
	"bytes"
	"io"
	"testing"

	"poise/internal/gridplan"
)

// emitPlan writes the evaluation sweep plan as JSONL in canonical key
// order, as the -emit-plan flows do.
func emitPlan(w io.Writer, h *Harness) error {
	plan, err := h.EvalPlan()
	if err != nil {
		return err
	}
	plan.Sort()
	return gridplan.WritePlan(w, plan)
}

// TestEmitPlanRoundTrips checks the plan surface the coordinator
// ships to workers: JSONL round-trip, digest-carrying tasks, stable
// content across harness constructions.
func TestEmitPlanRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := emitPlan(&buf, NewHarness(subsetOptions(1, 0))); err != nil {
		t.Fatal(err)
	}
	plan, err := gridplan.ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) == 0 {
		t.Fatal("empty plan")
	}
	for _, task := range plan.Tasks {
		if task.Digest == "" || task.Tag == "" {
			t.Fatalf("task %s lacks digest or tag", task.Key())
		}
	}
	var buf2 bytes.Buffer
	if err := emitPlan(&buf2, NewHarness(subsetOptions(1, 0))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("plan emission must be deterministic across harnesses")
	}
}
