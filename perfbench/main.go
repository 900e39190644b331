// Command perfbench is the repository's benchmark. It runs one named
// workload through the public ensembleio facade, checks every output,
// and prints its metrics by name and unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 they are the per-layer ones: the run
// times untraced iterations, then traced ones with program telemetry,
// benchmark spans around each facade call and a CPU profile attributed to
// packages, and writes the spans and the first profile under -out.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload gcrm-stages --seed 3 --seconds 15 --trace 0
//
// Record the outputs that seeds lo..hi are checked against with
//
//	bash perfbench/run.sh --record 0-15
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long to keep starting timed iterations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	rec := flag.String("record", "", "record the outputs of seeds `lo-hi` into "+expectedPath+" and exit")
	flag.Parse()

	if *rec != "" {
		var lo, hi int64
		if _, err := fmt.Sscanf(*rec, "%d-%d", &lo, &hi); err != nil || lo > hi {
			fatalf("-record wants lo-hi, got %q", *rec)
		}
		if err := record(lo, hi); err != nil {
			fatalf("record: %v", err)
		}
		return
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := measure(workloads[i], *seed, *seconds, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// Paths relative to the repository root, where the benchmark runs.
const (
	expectedPath = "perfbench/expected.json" // recorded outputs
	outDir       = ".bench_build/perfbench"  // stores, spans and profiles
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// iterStats is one timed iteration's host cost: wall and cpu in
// reference seconds (refload.go), rawWall and rawCPU as measured.
type iterStats struct {
	wall, cpu, allocMB float64
	rawWall, rawCPU    float64
	spans              map[string]float64 // span name -> seconds
	counts             map[string]float64
}

// runState holds one run's running totals.
type runState struct {
	attempted, failed int
	shown             int
	tr                tracer
	ref               *refLoad
}

func measure(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	if w.oneP {
		runtime.GOMAXPROCS(1)
	}
	printContext(w, seed, seconds, traced)
	work := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(work)

	// Set-up, several times; the last one is kept. Each sample starts
	// after the previous one's files are gone and every dirty page is
	// written, so the file system is in the same state for each, and
	// times setupBatch set-ups in a row. The host's speed is measured
	// before and after them.
	ref := newRefLoad()
	before := ref.calibrate()
	var setups []float64
	var r runner
	for i := 0; i < w.setupRepeats; i++ {
		r = nil
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("setup%d", i-1))); err != nil {
				return nil, err
			}
		}
		syscall.Sync()
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < w.setupBatch; j++ {
			dir := filepath.Join(work, fmt.Sprintf("setup%d", i), fmt.Sprint(j))
			expect, err := loadExpected(w.name, seed)
			if err == nil {
				r, err = w.prepare(seed, expect, dir)
			}
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(w.setupBatch))
	}
	setupSpeed := around(before, ref.calibrate())

	s := &runState{tr: tracer{start: time.Now()}, ref: ref}
	window := seconds
	if traced {
		window = seconds / 2
	}
	plain := s.loop(r, window, false, nil)
	if !traced {
		walls := field(plain, func(x iterStats) float64 { return x.wall })
		cpus := field(plain, func(x iterStats) float64 { return x.cpu })
		rawSetups := slices.Clone(setups)
		for i := range setups {
			setups[i] = setupSpeed.wallS(setups[i])
		}
		rss := peakRSSMB()
		sp := ref.speed()
		fmt.Printf("reference pass: wall %.6g s, cpu %.6g s (median of %d); host times are in reference seconds, "+
			"measured * %g s / the passes around them\n", sp.wall, sp.cpu, len(ref.walls), refPassSeconds)
		printSummary("wall_s", walls, field(plain, func(x iterStats) float64 { return x.rawWall }))
		printSummary("cpu_s", cpus, field(plain, func(x iterStats) float64 { return x.rawCPU }))
		printSummary("setup_s", setups, rawSetups)
		fmt.Printf("%-12s %.4g s, in order\n", "iterations", walls)
		fmt.Printf("%-12s %.1f MB (ru_maxrss)\n", "peak_rss_mb", rss)
		vals := map[string]float64{
			"wall_s": median(walls), "cpu_s": median(cpus), "setup_s": median(setups), "peak_rss_mb": rss,
		}
		m := map[string]value{}
		for _, e := range endToEnd {
			m[e.name] = value{vals[e.name], e.unit}
		}
		return s.finish(m), nil
	}

	att := newAttribution()
	tracedIters := s.loop(r, window, true, att)
	m, err := layerMetrics(tracedIters, plain, att, ref)
	if err != nil {
		return nil, err
	}
	if err := s.tr.write(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	return s.finish(m), nil
}

// loop runs timed iterations, at least one, for as close to window
// seconds as whole iterations allow, checking each after its timing
// ends and timing each with a meter. A traced loop turns on program
// telemetry, benchmark spans and the CPU profile.
func (s *runState) loop(r runner, window float64, traced bool, att *attribution) []iterStats {
	var iters []iterStats
	layerSet := map[string]bool{}
	for _, l := range layers {
		layerSet[l] = true
	}
	start := time.Now()
	var pass float64 // seconds the last iteration took with its check
	m := &meter{ref: s.ref, between: !traced, last: s.ref.calibrate()}
	for len(iters) == 0 || time.Since(start).Seconds()+pass/2 < window {
		p0 := time.Now()
		runtime.GC() // start every iteration from the same heap
		var prof bytes.Buffer
		var ms0 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
			s.tr.on, s.tr.iter = true, len(iters)+1
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fatalf("cpu profile: %v", err)
			}
		}
		m.start()
		var verify func() verdict
		s.tr.span("iteration", func() { verify = r.iterate(&s.tr, m, traced) })
		st := iterStats{wall: m.refWall, cpu: m.refCPU, rawWall: m.wall, rawCPU: m.cpu}
		if traced {
			pprof.StopCPUProfile()
			s.tr.on = false
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
			st.spans = s.tr.sums(s.tr.iter)
			if err := att.add(prof.Bytes(), layerSet); err != nil {
				fatalf("%v", err)
			}
			if len(iters) == 0 {
				s.tr.profile = prof.Bytes()
			}
		}
		v := verify()
		s.attempted += v.attempted
		s.failed += len(v.failures)
		for _, f := range v.failures {
			if s.shown < 10 {
				fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
				s.shown++
			}
		}
		st.counts = v.counts
		if traced {
			m.last = s.ref.calibrate()
		}
		iters = append(iters, st)
		pass = time.Since(p0).Seconds()
	}
	return iters
}

func (s *runState) finish(m map[string]value) *result {
	frac := float64(s.failed) / float64(s.attempted)
	fmt.Printf("%-12s %g (%d of %d scenario runs)\n", "failed_frac", frac, s.failed, s.attempted)
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// layerMetrics reduces the traced iterations to the per-layer metrics:
// medians per iteration for spans and host costs, the profile's buckets
// divided by the iteration count, and the deterministic counts.
func layerMetrics(traced, plain []iterStats, att *attribution, ref *refLoad) (map[string]value, error) {
	n := float64(len(traced))
	m := map[string]value{}
	for _, p := range perLayer {
		m[p.name] = value{0, p.unit}
	}
	set := func(name string, v float64) {
		u, ok := m[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		m[name] = value{v, u.Unit}
	}

	var bucketSum int64
	for b, ns := range att.ns {
		bucketSum += ns
		if strings.HasPrefix(b, "host.") {
			set(b+"_s", float64(ns)/1e9/n)
		} else {
			set(b+".self_s", float64(ns)/1e9/n)
		}
	}
	if bucketSum != att.total {
		return nil, fmt.Errorf("profile attribution lost samples: buckets %d ns, profile %d ns", bucketSum, att.total)
	}
	set("profile.total_s", float64(att.total)/1e9/n)

	for _, span := range []string{"workloads.run", "tracefmt.encode", "tracefmt.decode", "ensemble.stats",
		"analysis.diagnose", "campaign.run", "cascache.open"} {
		set(span+"_s", median(field(traced, func(x iterStats) float64 { return x.spans[span] })))
	}
	// Counts are deterministic, so the first iteration's stand for all.
	c := traced[0].counts
	for name, v := range c {
		if _, ok := m[name]; ok {
			set(name, v)
		}
	}
	if c["sim.virtual_seconds"] > 0 {
		set("sim.ff_frac", c["sim.ff_seconds"]/c["sim.virtual_seconds"])
	}
	if ev := c["sim.events_popped"]; ev > 0 {
		set("sim.host_ns_per_event", m["workloads.run_s"].Value*1e9/ev)
	}
	set("host.alloc_mb", median(field(traced, func(x iterStats) float64 { return x.allocMB })))
	set("host.ref_pass_s", ref.speed().wall)
	tw := median(field(traced, func(x iterStats) float64 { return x.wall }))
	set("trace.wall_s", tw)
	set("trace.overhead_s", tw-median(field(plain, func(x iterStats) float64 { return x.wall })))

	// Print the attribution with its self-check, then every metric.
	fmt.Printf("profile: %.3f s CPU over %d traced iterations; rule: %s\n", float64(att.total)/1e9, len(traced), attributionRule)
	fmt.Printf("profile self-check: sum of *.self_s and host.* = %.6f s/iter, profile total = %.6f s/iter\n",
		float64(bucketSum)/1e9/n, float64(att.total)/1e9/n)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

// printContext records where and how the run was made.
func printContext(w workload, seed int64, seconds float64, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.name, seed, seconds, traced)
	fmt.Printf("commit %s, %s, cpu %q, nproc %d, GOMAXPROCS %d\n",
		commit, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user+sys CPU time so far, read from
// CLOCK_PROCESS_CPUTIME_ID: the quantity getrusage reports, to the
// nanosecond rather than the scheduler tick.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		fatalf("clock_gettime: %v", e)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024
}

func field(xs []iterStats, f func(iterStats) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles are Python's statistics.quantiles(xs, n=4) (exclusive
// method, clamped), with a single sample standing for all three.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// printSummary prints the median and quartiles of a timing in
// reference seconds and as measured.
func printSummary(name string, ref, raw []float64) {
	q, r := quartiles(ref), quartiles(raw)
	fmt.Printf("%-12s median %.6g s  q1 %.6g  q3 %.6g  n %d  (measured: median %.6g s  q1 %.6g  q3 %.6g)\n",
		name, q[1], q[0], q[2], len(ref), r[1], r[0], r[2])
}

// tracer records spans around the benchmark's calls into the program. It
// keeps them in memory; write saves them when the run ends.
type tracer struct {
	on      bool
	start   time.Time
	iter    int
	spans   []span
	stack   []int
	profile []byte // first traced iteration's CPU profile
}

// span is one timed call; spans of one iteration share Iter.
type span struct {
	Iter   int    `json:"iter"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (t *tracer) span(name string, f func()) {
	if !t.on {
		f()
		return
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Iter: t.iter, ID: id, Parent: parent, Name: name, Start: time.Since(t.start).Nanoseconds()})
	t.stack = append(t.stack, id)
	defer func() {
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[id-1].End = time.Since(t.start).Nanoseconds()
	}()
	f()
}

// sums totals one iteration's span durations by name, in seconds.
func (t *tracer) sums(iter int) map[string]float64 {
	m := map[string]float64{}
	for _, s := range t.spans {
		if s.Iter == iter {
			m[s.Name] += float64(s.End-s.Start) / 1e9
		}
	}
	return m
}

// write saves the spans as JSON lines and the first traced iteration's
// CPU profile next to them.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(strings.TrimSuffix(path, ".spans.jsonl")+".cpu.pprof", t.profile, 0o644)
}
