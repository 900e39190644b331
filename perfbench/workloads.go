package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"

	"ensembleio"
)

// workload is one named set of inputs; BENCHMARK.json says why each was
// chosen. prepare is the set-up: it turns the seed into the program's
// inputs and does what users pay once, before the first timed
// iteration.
type workload struct {
	name string
	// setupRepeats is how many set-up samples a run takes, each the
	// mean of setupBatch set-ups in a row; setup_s is their median.
	setupRepeats, setupBatch int
	// oneP runs the workload with GOMAXPROCS 1. The simulator runs one
	// simulated process at a time, so a second P only lets the garbage
	// collector and goroutine hand-offs use the other vCPU, and how
	// soon that vCPU answers varies with the shared host: with two Ps
	// the same run's CPU time moved by 15% and its peak RSS by up to
	// 50% between host states minutes apart.
	oneP    bool
	prepare func(seed int64, expect map[string]expectation, dir string) (runner, error)
}

// runner is a prepared workload.
type runner interface {
	// iterate performs one timed iteration, timing it in parts with m,
	// and returns the untimed check of its outputs.
	iterate(tr *tracer, m *meter, traced bool) func() verdict
}

// verdict is the checked outcome of one iteration.
type verdict struct {
	attempted int
	failures  []string // one line per failed scenario run
	// observed holds each scenario's checkable outputs, the values a
	// recorded seed is compared against.
	observed map[string]expectation
	// counts are the iteration's deterministic per-layer counts
	// (traced iterations only).
	counts map[string]float64
}

var workloads = []workload{
	{name: "ior-lln", setupRepeats: 21, setupBatch: 10, oneP: true, prepare: prepareIOR},
	{name: "madbench-readahead", setupRepeats: 21, setupBatch: 10, oneP: true, prepare: prepareMADbench},
	{name: "gcrm-stages", setupRepeats: 21, setupBatch: 10, oneP: true, prepare: prepareGCRM},
	{name: "campaign-warm", setupRepeats: 3, setupBatch: 1, prepare: prepareCampaign},
}

// --- figure workloads ---

// scenario is one simulated run of a figure workload.
type scenario struct {
	name string
	run  func(telemetry bool) *ensembleio.Run
}

// figure runs its scenarios, encodes and diagnoses each, and applies
// the workload's reduction over all of them.
type figure struct {
	scenarios []scenario
	expect    map[string]expectation // nil on an unrecorded seed
	// reduce is the ensemble-statistics step over the iteration's runs.
	reduce func(runs []*ensembleio.Run) error
	// relate checks a property that holds on every seed, naming the
	// scenario that fails it.
	relate func(runs []*ensembleio.Run) (string, error)
}

// figOut is one scenario run's outputs.
type figOut struct {
	run      *ensembleio.Run
	trace    []byte
	phases   int
	findings []string
	err      error
}

const reductionName = "lln-reduction"

func (f *figure) iterate(tr *tracer, m *meter, traced bool) func() verdict {
	outs := make([]figOut, len(f.scenarios))
	runs := make([]*ensembleio.Run, len(f.scenarios))
	for i, sc := range f.scenarios {
		m.part(func() { outs[i] = runScenario(tr, sc, traced) })
		runs[i] = outs[i].run
	}
	var reduceErr error
	if f.reduce != nil {
		m.part(func() {
			tr.span("ensemble.stats", func() { reduceErr = guard(func() error { return f.reduce(runs) }) })
		})
	}
	return func() verdict {
		v := verdict{observed: map[string]expectation{}}
		if traced {
			v.counts = map[string]float64{}
		}
		var relName string
		var relErr error
		if f.relate != nil && !slices.Contains(runs, nil) {
			relName, relErr = f.relate(runs)
		}
		for i, sc := range f.scenarios {
			v.attempted++
			o := outs[i]
			err := o.err
			if err == nil {
				obs := expectation{
					Makespan:    strconv.FormatFloat(float64(o.run.Wall), 'g', -1, 64),
					TraceSHA256: digest(o.trace),
					Findings:    o.findings,
				}
				v.observed[sc.name] = obs
				err = checkScenario(o, obs, f.expect, sc.name)
				if traced {
					addRunCounts(v.counts, o)
				}
			}
			if err == nil && sc.name == relName {
				err = relErr
			}
			if err != nil {
				v.failures = append(v.failures, fmt.Sprintf("%s: %v", sc.name, err))
			}
		}
		if f.reduce != nil {
			v.attempted++
			if reduceErr != nil {
				v.failures = append(v.failures, fmt.Sprintf("%s: %v", reductionName, reduceErr))
			}
		}
		return v
	}
}

// runScenario runs, encodes and diagnoses one scenario; a panic
// anywhere becomes the scenario's error.
func runScenario(tr *tracer, sc scenario, traced bool) (o figOut) {
	defer func() {
		if p := recover(); p != nil {
			o = figOut{err: fmt.Errorf("panic: %v", p)}
		}
	}()
	tr.span("workloads.run", func() { o.run = sc.run(traced) })
	var buf bytes.Buffer
	tr.span("tracefmt.encode", func() { o.err = ensembleio.SaveTrace(&buf, o.run) })
	o.trace = buf.Bytes()
	tr.span("analysis.diagnose", func() {
		o.phases = len(ensembleio.Phases(o.run))
		for _, f := range ensembleio.Diagnose(o.run) {
			o.findings = append(o.findings, f.Code)
		}
	})
	return o
}

// checkScenario applies the seed-independent checks, then the recorded
// values when the seed has them.
func checkScenario(o figOut, obs expectation, expect map[string]expectation, name string) error {
	if o.phases == 0 {
		return errors.New("no phases")
	}
	events, marks, err := ensembleio.LoadTrace(bytes.NewReader(o.trace))
	if err != nil {
		return fmt.Errorf("trace does not decode: %w", err)
	}
	var again bytes.Buffer
	rerun := &ensembleio.Run{Collector: &ensembleio.Collector{Events: events, Marks: marks}}
	if err := ensembleio.SaveTrace(&again, rerun); err != nil || !bytes.Equal(again.Bytes(), o.trace) {
		return fmt.Errorf("trace does not round-trip through LoadTrace (%v)", err)
	}
	if expect == nil {
		return nil
	}
	want, ok := expect[name]
	if !ok {
		return errors.New("no recorded outputs for this scenario")
	}
	return want.compare(obs)
}

// addRunCounts adds one run's deterministic counts.
func addRunCounts(c map[string]float64, o figOut) {
	c["ipmio.events"] += float64(len(o.run.Collector.Events))
	c["tracefmt.trace_bytes"] += float64(len(o.trace))
	snap := o.run.Telemetry
	if snap == nil {
		return
	}
	for _, s := range snap.Counters {
		switch s.Name {
		case "sim.events_popped", "sim.events_scheduled", "sim.ff_seconds", "sim.virtual_seconds",
			"flownet.recomputes", "flownet.refreshes",
			"lustre.write_jobs", "lustre.write_mb", "lustre.read_calls", "lustre.read_mb",
			"lustre.readahead_pathologies", "lustre.conflicts", "lustre.mds_ops", "mpi.barriers":
			c[s.Name] += s.Value
		}
	}
	for _, g := range snap.Gauges {
		switch g.Name {
		case "sim.heap_high_water":
			c[g.Name] = math.Max(c[g.Name], g.Max)
		case "flownet.active_streams":
			c["flownet.active_streams_max"] = math.Max(c["flownet.active_streams_max"], g.Max)
		}
	}
}

// iorSeeds is how many simulation seeds each k runs under per
// iteration: Fig 2 is an ensemble over seeds, and single seeds differ
// by up to a third in how much flownet work they take.
const iorSeeds = 3

func prepareIOR(seed int64, expect map[string]expectation, _ string) (runner, error) {
	const tasks = 1024
	ks := []int{1, 2, 4, 8}
	f := &figure{expect: expect, reduce: llnReduction(ks, tasks)}
	for _, k := range ks {
		for j := int64(0); j < iorSeeds; j++ {
			cfg := ensembleio.IORConfig{
				Machine: ensembleio.Franklin(), Tasks: tasks, Reps: 5,
				BlockBytes: 512e6, TransferBytes: 512e6 / int64(k), Seed: seed*iorSeeds + j,
			}
			f.scenarios = append(f.scenarios, scenario{
				name: fmt.Sprintf("k%d-s%d", k, j),
				run: func(tel bool) *ensembleio.Run {
					c := cfg
					c.Telemetry = tel
					return ensembleio.RunIOR(c)
				},
			})
		}
	}
	return f, nil
}

// llnReduction is the Fig 1c/2 statistics over write times pooled
// across each k's seeds (runs are k-major): the k=1 histogram and its
// modes, then for every k the measured slowest call, the k-fold
// convolution's predicted slowest call, and the split prediction of
// the slowest task total.
func llnReduction(ks []int, tasks int) func(runs []*ensembleio.Run) error {
	return func(runs []*ensembleio.Run) error {
		if slices.Contains(runs, nil) {
			return errors.New("a scenario run failed")
		}
		pooled := func(i int) *ensembleio.Dataset {
			d := ensembleio.NewDataset(nil)
			for _, r := range runs[i*iorSeeds : (i+1)*iorSeeds] {
				for _, x := range ensembleio.Durations(r, ensembleio.OpWrite).Values() {
					d.Add(x)
				}
			}
			return d
		}
		single := pooled(0)
		h := ensembleio.NewHistogram(ensembleio.LinearBins(0, single.Max()*1.01, 100))
		h.AddAll(single)
		if len(h.Modes(ensembleio.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})) == 0 {
			return errors.New("no write-time modes")
		}
		for i, k := range ks {
			d := pooled(i)
			hk := ensembleio.NewHistogram(ensembleio.LinearBins(0, d.Max()*1.01, 100))
			hk.AddAll(d)
			for _, x := range []float64{
				ensembleio.ExpectedMax(hk, tasks),
				ensembleio.ExpectedMax(ensembleio.ConvolveK(h, k), tasks),
				ensembleio.SplitPrediction(single, k, tasks),
			} {
				if !(x > 0) || math.IsInf(x, 0) {
					return fmt.Errorf("k=%d: prediction %v", k, x)
				}
			}
		}
		return nil
	}
}

func prepareMADbench(seed int64, expect map[string]expectation, _ string) (runner, error) {
	f := &figure{expect: expect}
	for _, p := range []struct {
		name string
		prof ensembleio.Platform
	}{
		{"franklin", ensembleio.Franklin()},
		{"franklin-patched", ensembleio.FranklinPatched()},
		{"jaguar", ensembleio.Jaguar()},
	} {
		cfg := ensembleio.MADbenchConfig{Machine: p.prof, Tasks: 256, Seed: seed}
		f.scenarios = append(f.scenarios, scenario{
			name: p.name,
			run: func(tel bool) *ensembleio.Run {
				c := cfg
				c.Telemetry = tel
				return ensembleio.RunMADbench(c)
			},
		})
	}
	// The strided read-ahead defect makes Franklin slower than the
	// patched client on every seed (Fig 4 vs Fig 5).
	f.relate = func(runs []*ensembleio.Run) (string, error) {
		if runs[0].Wall <= runs[1].Wall {
			return "franklin", fmt.Errorf("makespan %v not above patched %v", runs[0].Wall, runs[1].Wall)
		}
		return "", nil
	}
	return f, nil
}

func prepareGCRM(seed int64, expect map[string]expectation, _ string) (runner, error) {
	f := &figure{expect: expect}
	for stage, name := range []string{"baseline", "collective", "aligned", "metaagg"} {
		cfg := ensembleio.GCRMConfig{
			Machine: ensembleio.Franklin(), Tasks: 10240, Seed: seed,
			Align: stage >= 2, AggregateMetadata: stage >= 3,
		}
		if stage >= 1 {
			cfg.Aggregators = 80
		}
		f.scenarios = append(f.scenarios, scenario{
			name: name,
			run: func(tel bool) *ensembleio.Run {
				c := cfg
				c.Telemetry = tel
				return ensembleio.RunGCRM(c)
			},
		})
	}
	return f, nil
}

// --- campaign-warm ---

// Grid shape: gridEntries entries, each scenario submitted twice in a
// row. The unique scenarios are gridSpecs generated specs, the same on
// every seed so that every seed serves about as many bytes, each run
// under gridEntries/2/gridSpecs simulation seeds drawn from the seed.
const (
	gridEntries = 800
	gridSpecs   = 100
	gridName    = "grid"
)

// campaignRunner serves a cold-populated store warm.
type campaignRunner struct {
	entries []ensembleio.CampaignEntry
	dir     string
	cold    []ensembleio.CampaignResult
	storeMB float64
	workers int
	expect  map[string]expectation
	digest  string // of the cold artifacts, once the first check has hashed them
}

func prepareCampaign(seed int64, expect map[string]expectation, dir string) (runner, error) {
	r := &campaignRunner{dir: dir, expect: expect, workers: runtime.NumCPU()}
	for i := 0; i < gridEntries; i++ {
		u := int64(i / 2)
		r.entries = append(r.entries, ensembleio.CampaignEntry{
			Name:     gridName,
			Spec:     ensembleio.GenerateWorkload(u % gridSpecs),
			Platform: ensembleio.Franklin(),
			Seed:     seed*gridEntries + u/gridSpecs,
		})
	}
	store, err := ensembleio.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	cold, stats, err := ensembleio.RunCampaign(r.entries, ensembleio.CampaignOptions{Workers: r.workers, Store: store})
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	if stats.Misses != stats.Unique || stats.Hits != 0 {
		return nil, fmt.Errorf("cold campaign served from a store that should be empty: %+v", stats)
	}
	r.cold = cold
	r.storeMB, err = dirMB(dir)
	return r, err
}

func (r *campaignRunner) iterate(tr *tracer, m *meter, _ bool) func() verdict {
	var (
		store  *ensembleio.CacheStore
		warm   []ensembleio.CampaignResult
		stats  ensembleio.CampaignStats
		err    error
		decode = make([]error, len(r.entries))
	)
	m.part(func() {
		tr.span("cascache.open", func() { store, err = ensembleio.OpenCache(r.dir) })
		if err == nil {
			tr.span("campaign.run", func() {
				err = guard(func() error {
					var e error
					warm, stats, e = ensembleio.RunCampaign(r.entries, ensembleio.CampaignOptions{Workers: r.workers, Store: store})
					return e
				})
			})
		}
		if err == nil {
			// Consume what was served, as a user reading the campaign does:
			// decode each distinct trace and telemetry snapshot.
			tr.span("tracefmt.decode", func() {
				for i, res := range warm {
					if res.Source != "dup" {
						decode[i] = consume(res.Artifacts)
					}
				}
			})
		}
	})
	return func() verdict {
		v := verdict{attempted: len(r.entries), observed: map[string]expectation{}}
		if err != nil {
			for range r.entries {
				v.failures = append(v.failures, "warm campaign: "+err.Error())
			}
			return v
		}
		if r.digest == "" {
			r.digest = artifactsDigest(r.cold)
		}
		obs := expectation{TraceSHA256: r.digest}
		v.observed[gridName] = obs
		var all error
		if stats.Misses != 0 || stats.Hits != stats.Unique {
			all = fmt.Errorf("warm pass computed %d of %d unique scenarios", stats.Misses, stats.Unique)
		} else if r.expect != nil {
			all = r.expect[gridName].compare(obs)
		}
		for i := range r.entries {
			err := all
			if err == nil {
				err = ensembleio.DiffCacheArtifacts(r.cold[i].Artifacts, warm[i].Artifacts)
			}
			if err == nil {
				err = decode[i]
			}
			if err != nil {
				v.failures = append(v.failures, fmt.Sprintf("entry %d: %v", i, err))
			}
		}
		st := store.Stats()
		v.counts = map[string]float64{
			"cascache.hits":         float64(st.Hits),
			"cascache.misses":       float64(st.Misses),
			"cascache.bytes_served": float64(st.BytesServed),
			"cascache.store_mb":     r.storeMB,
			"campaign.unique":       float64(stats.Unique),
			"campaign.dup_hits":     float64(stats.DupHits),
		}
		return v
	}
}

// consume decodes a served entry's binary trace and telemetry snapshot.
func consume(arts []ensembleio.CacheArtifact) error {
	seen := 0
	for _, a := range arts {
		var err error
		switch a.Name {
		case "trace.bin":
			_, _, err = ensembleio.LoadTrace(bytes.NewReader(a.Data))
		case "telemetry.json":
			_, err = ensembleio.LoadTelemetry(bytes.NewReader(a.Data))
		default:
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		seen++
	}
	if seen != 2 {
		return errors.New("served entry lacks trace.bin or telemetry.json")
	}
	return nil
}

// artifactsDigest is the SHA-256 over every result's artifact names and
// bytes, in submission order.
func artifactsDigest(res []ensembleio.CampaignResult) string {
	h := sha256.New()
	for _, r := range res {
		for _, a := range r.Artifacts {
			fmt.Fprintf(h, "%s %d\n", a.Name, len(a.Data))
			h.Write(a.Data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// guard runs f, turning a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return float64(n) / 1e6, err
}
