package main

import (
	"math"
	"testing"
)

func TestModuleOf(t *testing.T) {
	for frame, want := range map[string]string{
		"poise/internal/sm.(*Warp).depBlocked":                                                   "sm",
		"poise/internal/cache.(*MSHRFile).Lookup (inline)":                                       "cache",
		"poise/internal/sim.(*GPU).runReady.func1":                                               "sim",
		"poise/internal/sim.(*eventHeap).pop":                                                    "sim",
		"poise/internal/runner.MapSlice[go.shape.*uint8,go.shape.*poise/internal/sim.GPU].func1": "runner",
		"poise/internal/runner.(*Cache[go.shape.string,go.shape.*uint8]).Get":                    "runner",
		"poise/internal/linalg.XtWX":                                                             "glm",
		"poise/internal/workloads.buildII":                                                       "other",
		"internal/sync.(*HashTrieMap[go.shape.interface {},go.shape.interface {}]).Load":         "runtime",
		"runtime.mallocgc":                       "runtime",
		"aeshashbody":                            "runtime",
		"internal/runtime/syscall.Syscall6":      "syscall",
		"syscall.Syscall":                        "syscall",
		"net/http.(*conn).serve":                 "nethttp",
		"net/http.(*persistConn).readLoop.func1": "nethttp",
		"encoding/json.(*decodeState).object":    "json",
		"math.archExp":                           "other",
		"main.(*serveMix).pass.func1":            "other",
	} {
		if got := moduleOf(frame); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", frame, got, want)
		}
		if _, ok := indexOf(cpuModules, moduleOf(frame)); !ok {
			t.Errorf("moduleOf(%q) = %q is not a reported module", frame, moduleOf(frame))
		}
	}
}

func indexOf(xs []string, x string) (int, bool) {
	for i, v := range xs {
		if v == x {
			return i, true
		}
	}
	return -1, false
}

func TestStackModuleGC(t *testing.T) {
	if got := stackModule([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}); got != "gc" {
		t.Errorf("mark worker stack -> %q, want gc", got)
	}
	if got := stackModule([]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "poise/internal/serve.(*model).decide"}); got != "runtime" {
		t.Errorf("allocation stack -> %q, want runtime", got)
	}
	if got := stackModule([]string{"poise/internal/sm.(*Warp).depBlocked (inline)", "poise/internal/sm.(*Scheduler).Pick"}); got != "sm" {
		t.Errorf("inlined leaf -> %q, want sm", got)
	}
}

const tracesFixture = `File: perfbench
Type: cpu
Duration: 2.01s, Total samples = 1.94s (96.52%)
-----------+-------------------------------------------------------
     1.20s   poise/internal/sm.(*Warp).depBlocked (inline)
             poise/internal/sm.(*Scheduler).Pick
             poise/internal/sim.(*GPU).runReady
-----------+-------------------------------------------------------
     600ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     100ms   poise/internal/runner.MapSlice[go.shape.*uint8,go.shape.*poise/internal/profile.Profile].func1
-----------+-------------------------------------------------------
      40ms   aeshashbody
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	p, err := foldTraces([]byte(tracesFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sm": 1.2, "gc": 0.6, "runner": 0.1, "runtime": 0.04}
	var sum float64
	for m, v := range p.ByModule {
		if math.Abs(v-want[m]) > 1e-9 {
			t.Errorf("%s = %v, want %v", m, v, want[m])
		}
		sum += v
	}
	if math.Abs(sum-p.Total) > 1e-9 || math.Abs(p.Total-1.94) > 1e-9 || p.Header != 1.94 {
		t.Errorf("modules sum to %v, total %v, header %v; want 1.94 each", sum, p.Total, p.Header)
	}
	if len(p.ByModule) != len(cpuModules) {
		t.Errorf("%d modules reported, want %d", len(p.ByModule), len(cpuModules))
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"930ms": 0.93, "1.91s": 1.91, "1.50mins": 90, "250us": 250e-6, "0": 0} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("12parsecs"); err == nil {
		t.Error("unknown unit accepted")
	}
}
