package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"poise/internal/trace"
	"poise/internal/workloads"
)

// catalogueDigest fingerprints the catalogue programs the simulation
// workloads run.
func catalogueDigest(t *testing.T, seed int64) []string {
	t.Helper()
	in, err := newSimInstance(seed, workloads.Small, []string{"ii", "mm", "bfs", "kmeans", "mvt", "syrk"})
	if err != nil {
		t.Fatal(err)
	}
	var ds []string
	for _, w := range in.progs {
		for _, k := range w.Kernels {
			ds = append(ds, trace.KernelDigest(k))
		}
	}
	return ds
}

func recordedTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	dir := t.TempDir()
	c, err := newCampaign(seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, filepath.Base(c.tracePath)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func recordsJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	data, err := json.Marshal(ingestRecords(seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func keysOf(seed int64) any {
	keys, maxN := keySequence(seed, 0, 50)
	return []any{keys, maxN}
}

// TestSeedDeterminism: the same seed gives the same inputs, and a
// different seed different ones, for every input generator.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("records a trace")
	}
	for _, c := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"catalogue digests", func(s int64) any { return catalogueDigest(t, s) }},
		{"recorded trace bytes", func(s int64) any { return recordedTrace(t, s) }},
		{"ingest records", func(s int64) any { return recordsJSON(t, s) }},
		{"key sequence", keysOf},
		{"feature vectors", func(s int64) any { return features(s, 42) }},
	} {
		a, b, other := c.gen(3), c.gen(3), c.gen(4)
		if !equal(a, b) {
			t.Errorf("%s: seed 3 twice differs", c.name)
		}
		if equal(a, other) {
			t.Errorf("%s: seeds 3 and 4 agree", c.name)
		}
	}
}

func equal(a, b any) bool {
	if x, ok := a.([]byte); ok {
		return bytes.Equal(x, b.([]byte))
	}
	return reflect.DeepEqual(a, b)
}
