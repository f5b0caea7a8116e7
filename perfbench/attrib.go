package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules are the layers a CPU profile is folded into, in report
// order. Each becomes the per-layer metric cpu.<module>_s; together
// they partition the profile's samples.
var cpuModules = []string{
	"sim", "sm", "cache", "noc", "dram", "trace", "traceio", "poise", "sched",
	"experiments", "profile", "gridplan", "runner", "results", "snap",
	"serve", "glm", "nethttp", "json", "syscall", "gc", "runtime", "other",
}

// internalModule maps a poise/internal package (its first path element
// below internal/) to its layer. linalg is the GLM's matrix kernel and
// reports with it; packages that are not a measured layer (config,
// workloads, stats, ...) fold into "other".
var internalModule = map[string]string{
	"sim": "sim", "sm": "sm", "cache": "cache", "noc": "noc", "dram": "dram",
	"trace": "trace", "traceio": "traceio", "poise": "poise", "sched": "sched",
	"experiments": "experiments", "profile": "profile", "gridplan": "gridplan",
	"runner": "runner", "results": "results", "snap": "snap", "serve": "serve",
	"glm": "glm", "linalg": "glm",
}

// gcFramePrefixes mark a sample as garbage-collector work when any
// frame of its stack starts with one of them: background mark workers,
// mutator assists, sweeping, scavenging and write-barrier flushes.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject",
	"runtime.wbBuf", "runtime.greyobject",
}

// cleanFrame strips pprof's inline marker and every bracketed
// type-parameter list from a function name, so
// "poise/internal/runner.MapSlice[go.shape.*uint8,...].func1 (inline)"
// becomes "poise/internal/runner.MapSlice.func1".
func cleanFrame(fn string) string {
	fn = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(fn), "(inline)"))
	if !strings.Contains(fn, "[") {
		return fn
	}
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// packageOf returns the import path of a cleaned function name: the
// text before the first '.' that follows the last '/'. A name with no
// '.' there (assembly routines such as "aeshashbody") has no package.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// moduleOf maps one profile frame to its layer, ignoring GC context.
func moduleOf(frame string) string {
	pkg := packageOf(cleanFrame(frame))
	if rest, ok := strings.CutPrefix(pkg, "poise/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		if m, ok := internalModule[first]; ok {
			return m
		}
		return "other"
	}
	switch {
	case pkg == "syscall", pkg == "internal/poll", pkg == "net", pkg == "os",
		pkg == "internal/runtime/syscall", strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "", pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"), pkg == "internal/bytealg",
		pkg == "internal/abi", pkg == "internal/sync", pkg == "sync", pkg == "sync/atomic":
		return "runtime"
	case pkg == "net/http", strings.HasPrefix(pkg, "net/http/"):
		return "nethttp"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}

// stackModule attributes one sample: to "gc" when the collector is on
// its stack, otherwise to the module of its leaf frame (the flat,
// self-time owner; for inlined code pprof lists the inlined function
// first, so the owner is the innermost source function).
func stackModule(stack []string) string {
	for _, fr := range stack {
		fn := cleanFrame(fr)
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	return moduleOf(stack[0])
}

// cpuProfile is a CPU profile folded by module.
type cpuProfile struct {
	Total    float64            // seconds of samples (sum over stacks)
	Header   float64            // pprof's rounded "Total samples" figure
	ByModule map[string]float64 // seconds per module; sums to Total
}

// foldTraces parses `go tool pprof -traces` output: a header holding
// "Total samples = <dur>", then one block per distinct stack, each
// opened by a separator line, whose first line carries the sample
// value and the leaf frame and whose further lines are the callers.
func foldTraces(out []byte) (cpuProfile, error) {
	prof := cpuProfile{ByModule: map[string]float64{}}
	for _, m := range cpuModules {
		prof.ByModule[m] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var stack []string
	var value float64
	inBlock := false
	flush := func() {
		if inBlock && len(stack) > 0 {
			prof.ByModule[stackModule(stack)] += value
			prof.Total += value
		}
		stack, inBlock = stack[:0], false
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			if _, after, ok := strings.Cut(line, "Total samples = "); ok {
				f := strings.Fields(after)
				if len(f) > 0 {
					d, err := parseDuration(f[0])
					if err != nil {
						return prof, err
					}
					prof.Header = d
				}
			}
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if len(stack) == 0 {
			f := strings.Fields(line)
			if len(f) < 2 {
				return prof, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := parseDuration(f[0])
			if err != nil {
				return prof, err
			}
			value = d
			stack = append(stack, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0])))
			continue
		}
		stack = append(stack, strings.TrimSpace(line))
	}
	flush()
	return prof, sc.Err()
}

// parseDuration reads a pprof-rendered duration such as "930ms",
// "1.91s" or "1.50mins" into seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"hr", 3600},
		{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof duration %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	if s == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("pprof duration %q has no known unit", s)
}

// foldProfiles runs the installed `go tool pprof` over the CPU
// profiles (merged) and folds the samples by module.
func foldProfiles(files []string) (cpuProfile, error) {
	args := append([]string{"tool", "pprof", "-traces"}, files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuProfile{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(out)
}
