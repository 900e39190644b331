// Command paperfig regenerates every evaluation artifact of the paper
// — Figures 1, 2, 4, 5, 6 and the in-text writer-saturation claim —
// from fresh simulations. For each figure it writes an ASCII rendering
// (.txt) and the underlying series (.csv) into the output directory,
// and prints a paper-vs-measured summary line suitable for
// EXPERIMENTS.md.
//
// Usage:
//
//	paperfig [-out DIR] [-fig 1a|1b|1c|2|4|5a|5b|5c|6|writers|all] [-seed N] [-j N]
//	         [-faults scenario.json] [-progress]
//	         [-prof PREFIX] [-version]
//
// -progress renders a live stderr meter (completed runs, rate, ETA)
// while the simulation pool drains. The meter observes only completion
// counts, so every artifact under -out stays byte-identical with or
// without it, at any -j.
//
// With -faults, every simulated run executes against the degraded
// machine — regenerating the figures under a labeled pathology shows
// which ensemble signatures each fault perturbs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ensembleio"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/report"
	"ensembleio/internal/runpool"
)

var (
	outDir   = flag.String("out", "out", "output directory")
	figSel   = flag.String("fig", "all", "figure to regenerate (1a 1b 1c 2 4 5a 5b 5c 6 writers all)")
	seed     = flag.Int64("seed", 1, "base run seed")
	jobs     = flag.Int("j", 0, "parallel simulation workers (0 = all cores; output is identical at any -j)")
	faults   = flag.String("faults", "", "inject the fault scenario from this JSON file into every run")
	progress = flag.Bool("progress", false, "render a live run-completion meter on stderr")
	prof     = flag.String("prof", "", "write CPU/heap profiles to PREFIX.{cpu,heap}.pprof")
	version  = flag.Bool("version", false, "print build version and exit")
)

// meter is the optional stderr progress reporter (nil when -progress
// is unset); prewarm and the writers sweep feed it run completions.
var meter runpool.Progress

// faultScenario is the -faults scenario, loaded once in main before
// any spec builds (nil when the flag is unset).
var faultScenario *ensembleio.Scenario

// runCache shares simulations between figures (1a/1b/1c use the same
// IOR run; 4 and 5 share the MADbench runs; the 6-series shares the
// GCRM ladder). It is filled by prewarm before any figure renders and
// only read afterwards, so figure generation itself stays sequential
// and byte-stable.
var runCache = map[string]*ensembleio.Run{}

// runSpec names one simulation a figure needs: a cache key plus a
// pure constructor (no cache access), so prewarm can execute specs on
// runpool workers and commit the results in submission order.
type runSpec struct {
	key   string
	build func() *ensembleio.Run
}

// machineFor constructs the named platform.
func machineFor(name string) ensembleio.Platform {
	switch name {
	case "franklin":
		return ensembleio.Franklin()
	case "patched":
		return ensembleio.FranklinPatched()
	case "jaguar":
		return ensembleio.Jaguar()
	}
	panic("unknown machine " + name)
}

func cachedRun(s runSpec) *ensembleio.Run {
	if r, ok := runCache[s.key]; ok {
		return r
	}
	r := s.build()
	runCache[s.key] = r
	return r
}

func iorSpec(k int, s int64) runSpec {
	return runSpec{fmt.Sprintf("ior-%d-%d", k, s), func() *ensembleio.Run {
		return ensembleio.RunIOR(ensembleio.IORConfig{
			Machine: machineFor("franklin"), Tasks: 1024, Reps: 5,
			TransferBytes: 512e6 / int64(k), Faults: faultScenario, Seed: s,
		})
	}}
}

func iorRun(k int, s int64) *ensembleio.Run { return cachedRun(iorSpec(k, s)) }

func madSpec(machine string) runSpec {
	return runSpec{"mad-" + machine, func() *ensembleio.Run {
		return ensembleio.RunMADbench(ensembleio.MADbenchConfig{Machine: machineFor(machine), Faults: faultScenario, Seed: *seed})
	}}
}

func madRun(machine string) *ensembleio.Run { return cachedRun(madSpec(machine)) }

func gcrmSpec(stage int) runSpec {
	names := []string{"baseline", "collective", "aligned", "metaagg"}
	return runSpec{"gcrm-" + names[stage], func() *ensembleio.Run {
		cfg := ensembleio.GCRMConfig{Machine: machineFor("franklin"), Faults: faultScenario, Seed: *seed}
		if stage >= 1 {
			cfg.Aggregators = 80
		}
		if stage >= 2 {
			cfg.Align = true
		}
		if stage >= 3 {
			cfg.AggregateMetadata = true
		}
		return ensembleio.RunGCRM(cfg)
	}}
}

func gcrmRun(stage int) *ensembleio.Run { return cachedRun(gcrmSpec(stage)) }

// specsFor lists the simulations one figure reads from the cache.
// (The writers sweep is not listed: IORWriterSweepJ parallelizes its
// own runs.)
func specsFor(id string) []runSpec {
	switch id {
	case "1a", "1b":
		return []runSpec{iorSpec(1, *seed)}
	case "5a":
		return []runSpec{madSpec("franklin")}
	case "1c":
		return []runSpec{iorSpec(1, *seed), iorSpec(1, *seed+1)}
	case "2":
		var specs []runSpec
		for _, k := range []int{1, 2, 4, 8} {
			for s := int64(0); s < 3; s++ {
				specs = append(specs, iorSpec(k, *seed+s))
			}
		}
		return specs
	case "4":
		return []runSpec{madSpec("franklin"), madSpec("jaguar")}
	case "5b":
		return []runSpec{madSpec("franklin"), madSpec("patched")}
	case "5c":
		return []runSpec{madSpec("franklin"), madSpec("patched"), madSpec("jaguar")}
	case "6":
		return []runSpec{gcrmSpec(0), gcrmSpec(1), gcrmSpec(2), gcrmSpec(3)}
	}
	return nil
}

// prewarm fans every simulation the selected figures need across the
// worker pool, then commits them to the cache in submission order.
// Every later cache hit is a pure read, so the rendered figures are
// byte-identical to a fully sequential regeneration.
func prewarm(ids []string) {
	var specs []runSpec
	seen := map[string]bool{}
	for _, id := range ids {
		for _, s := range specsFor(id) {
			if !seen[s.key] {
				seen[s.key] = true
				specs = append(specs, s)
			}
		}
	}
	runs := runpool.MapProgress(*jobs, specs, meter, func(_ int, s runSpec) *ensembleio.Run {
		return s.build()
	})
	for i, s := range specs {
		runCache[s.key] = runs[i]
	}
}

type figure struct {
	id   string
	desc string
	gen  func(txt, csv io.Writer) (summary string, err error)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfig: ")
	flag.Parse()
	if *version {
		fmt.Println(cliutil.Version())
		return
	}
	stopProf, err := cliutil.StartProfiles(*prof)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()
	if *progress {
		meter = runpool.StderrProgress(os.Stderr, "paperfig")
	}

	if *faults != "" {
		s, err := ensembleio.LoadScenario(*faults)
		if err != nil {
			log.Fatal(err)
		}
		faultScenario = s
		fmt.Printf("injecting faults: %s\n", s)
	}

	figs := []figure{
		{"1a", "IOR trace diagram (5 synchronous write phases)", fig1a},
		{"1b", "IOR aggregate data rate vs time", fig1b},
		{"1c", "IOR write-time histogram: R, 2R, 4R modes; two file systems", fig1c},
		{"2", "transfer splitting k=1,2,4,8: rates and distribution narrowing", fig2},
		{"4", "MADbench on Franklin vs Jaguar: phases and read/write histograms", fig4},
		{"5a", "per-phase read completion CDFs, reads 4-8 deteriorate", fig5a},
		{"5b", "read histogram before vs after the Lustre patch", fig5b},
		{"5c", "trace and run time after the patch", fig5c},
		{"6", "GCRM baseline and three optimizations", fig6},
		{"writers", "writer-count saturation sweep (~80 writers saturate)", figWriters},
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	var selected []string
	for _, f := range figs {
		if *figSel == "all" || *figSel == f.id {
			selected = append(selected, f.id)
		}
	}
	prewarm(selected)
	ran := 0
	for _, f := range figs {
		if *figSel != "all" && *figSel != f.id {
			continue
		}
		ran++
		txtPath := filepath.Join(*outDir, "fig"+f.id+".txt")
		csvPath := filepath.Join(*outDir, "fig"+f.id+".csv")
		txt, err := os.Create(txtPath)
		if err != nil {
			log.Fatal(err)
		}
		csv, err := os.Create(csvPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(txt, "Figure %s — %s\n\n", f.id, f.desc)
		summary, err := f.gen(txt, csv)
		// Close errors are write errors: a figure truncated by ENOSPC
		// must not be reported as regenerated.
		if cerr := txt.Close(); err == nil {
			err = cerr
		}
		if cerr := csv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("fig %s: %v", f.id, err)
		}
		fmt.Printf("fig %-7s %s\n         -> %s, %s\n", f.id, summary, txtPath, csvPath)
	}
	if ran == 0 {
		log.Fatalf("unknown figure %q", *figSel)
	}
}

func fig1a(txt, csv io.Writer) (string, error) {
	run := iorRun(1, *seed)
	fmt.Fprintln(txt, "W=write .=idle; rows are rank bands, columns are time")
	fmt.Fprint(txt, ensembleio.TraceDiagram(run, 110, 32))
	rows := [][]string{{"phase", "start_s", "end_s"}}
	for _, ph := range ensembleio.Phases(run) {
		rows = append(rows, []string{ph.Name, report.F(float64(ph.StartT), 2), report.F(float64(ph.EndT), 2)})
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	return fmt.Sprintf("run %.0fs, 5 banded write phases (paper: banded phases)", float64(run.Wall)), nil
}

func fig1b(txt, csv io.Writer) (string, error) {
	run := iorRun(1, *seed)
	s := ensembleio.RateSeries(run, ensembleio.OpWrite, 1.0)
	report.Series(txt, "aggregate write rate (MB/s) vs time", float64(s.T0), float64(s.Dt), s.Values, 100)
	rows := [][]string{{"t_s", "MBps"}}
	for i, v := range s.Values {
		rows = append(rows, []string{report.F(float64(s.T0)+float64(i)*float64(s.Dt), 1), report.F(v, 0)})
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	return fmt.Sprintf("peak %.0f MB/s burst then ~16 GB/s plateau and tail (paper: ~60 GB/s burst, plateaus)", s.Peak()), nil
}

func fig1c(txt, csv io.Writer) (string, error) {
	// Two runs of the same experiment: "scratch" and "scratch2".
	runs := []*ensembleio.Run{iorRun(1, *seed), iorRun(1, *seed+1)}
	names := []string{"scratch", "scratch2"}
	var hists []*ensembleio.Histogram
	var dsets []*ensembleio.Dataset
	max := 0.0
	for _, r := range runs {
		d := ensembleio.Durations(r, ensembleio.OpWrite)
		dsets = append(dsets, d)
		if d.Max() > max {
			max = d.Max()
		}
	}
	for i, d := range dsets {
		h := ensembleio.NewHistogram(ensembleio.LinearBins(0, max*1.01, 60))
		h.AddAll(d)
		hists = append(hists, h)
		report.Histogram(txt, names[i]+": write completion times (s)", h)
		fmt.Fprintln(txt)
	}
	modes := hists[0].Modes(ensembleio.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})
	report.Table(txt, report.ModeTable(modes, "s"))
	ks, _ := ensembleio.Reproducibility(dsets[0], dsets[1])
	fmt.Fprintf(txt, "\nKS distance between the two runs: %.3f (reproducible ensembles)\n", ks)

	rows := [][]string{{"bin_lo_s", "bin_hi_s", "count_scratch", "count_scratch2"}}
	for i := 0; i < hists[0].Bins.N(); i++ {
		rows = append(rows, []string{
			report.F(hists[0].Bins.Edges[i], 2), report.F(hists[0].Bins.Edges[i+1], 2),
			report.F(hists[0].Counts()[i], 0), report.F(hists[1].Counts()[i], 0),
		})
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	var centers []string
	for _, m := range modes {
		centers = append(centers, report.F(m.Center, 1)+"s")
	}
	sort.Strings(centers)
	return fmt.Sprintf("modes at %s, KS=%.3f (paper: peaks at R~31s, 2R, 4R; nearly identical across file systems)",
		strings.Join(centers, " "), ks), nil
}

func fig2(txt, csv io.Writer) (string, error) {
	rows := [][]string{{"k", "transfer_MB", "rate_MBps", "task_total_cv", "predicted_slowest_s"}}
	single := ensembleio.Durations(iorRun(1, *seed), ensembleio.OpWrite)
	var r1, r8 float64
	for _, k := range []int{1, 2, 4, 8} {
		sum := 0.0
		const seeds = 3
		for s := int64(0); s < seeds; s++ {
			sum += iorRun(k, *seed+s).AggregateMBps()
		}
		rate := sum / seeds
		if k == 1 {
			r1 = rate
		}
		if k == 8 {
			r8 = rate
		}
		// Per-task totals for the CV column.
		run := iorRun(k, *seed)
		sums := map[[2]int]float64{}
		counts := map[int]int{}
		for _, e := range run.Collector.Events {
			if e.Op != ensembleio.OpWrite {
				continue
			}
			rep := counts[e.Rank] / k
			counts[e.Rank]++
			sums[[2]int{e.Rank, rep}] += float64(e.Dur)
		}
		// Fold per-task totals in sorted (rank, rep) order so the
		// dataset — and every figure derived from it — is
		// byte-reproducible across runs.
		taskKeys := make([][2]int, 0, len(sums))
		for tk := range sums {
			taskKeys = append(taskKeys, tk)
		}
		sort.Slice(taskKeys, func(i, j int) bool {
			if taskKeys[i][0] != taskKeys[j][0] {
				return taskKeys[i][0] < taskKeys[j][0]
			}
			return taskKeys[i][1] < taskKeys[j][1]
		})
		d := ensembleio.NewDataset(nil)
		for _, tk := range taskKeys {
			d.Add(sums[tk])
		}
		h := ensembleio.NewHistogram(ensembleio.LinearBins(0, d.Max()*1.01, 60))
		h.AddAll(d)
		report.Histogram(txt, fmt.Sprintf("k=%d: per-task 512MB totals (s)", k), h)
		fmt.Fprintln(txt)
		rows = append(rows, []string{
			fmt.Sprint(k), fmt.Sprint(512 / k), report.F(rate, 0),
			report.F(d.CV(), 3), report.F(ensembleio.SplitPrediction(single, k, 1024), 1),
		})
	}
	report.Table(txt, rows)
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	return fmt.Sprintf("k=1: %.0f -> k=8: %.0f MB/s, +%.0f%% (paper: 11610 -> 13486, +16%%)",
		r1, r8, (r8/r1-1)*100), nil
}

func fig4(txt, csv io.Writer) (string, error) {
	rows := [][]string{{"platform", "wall_s", "read_med_s", "read_p95_s", "read_max_s", "write_med_s"}}
	for _, name := range []string{"franklin", "jaguar"} {
		run := madRun(name)
		reads := ensembleio.Durations(run, ensembleio.OpRead)
		writes := ensembleio.Durations(run, ensembleio.OpWrite)

		fmt.Fprintf(txt, "== %s: run %.0fs ==\n", name, float64(run.Wall))
		fmt.Fprint(txt, ensembleio.TraceDiagram(run, 110, 16))
		fmt.Fprintln(txt)
		hr := ensembleio.NewHistogram(ensembleio.LogBins(0.5, 1000, 4))
		hr.AddAll(reads)
		report.Histogram(txt, name+" reads (s), log bins", hr)
		fmt.Fprintln(txt)
		hw := ensembleio.NewHistogram(ensembleio.LogBins(0.5, 1000, 4))
		hw.AddAll(writes)
		report.Histogram(txt, name+" writes (s), log bins", hw)
		fmt.Fprintln(txt)

		rows = append(rows, []string{
			name, report.F(float64(run.Wall), 0),
			report.F(reads.Quantile(0.5), 1), report.F(reads.Quantile(0.95), 1),
			report.F(reads.Max(), 0), report.F(writes.Quantile(0.5), 1),
		})
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	f, j := madRun("franklin"), madRun("jaguar")
	return fmt.Sprintf("franklin %.0fs vs jaguar %.0fs; franklin slowest read %.0fs (paper: 2200s vs 275s; reads 30-500s)",
		float64(f.Wall), float64(j.Wall), ensembleio.Durations(f, ensembleio.OpRead).Max()), nil
}

func fig5a(txt, csv io.Writer) (string, error) {
	run := madRun("franklin")
	rows := [][]string{{"t_s"}}
	var curves [][]float64
	var names []string
	for m := 3; m < 8; m++ {
		names = append(names, fmt.Sprintf("read%d", m+1))
		rows[0] = append(rows[0], names[len(names)-1]+"_frac_complete")
	}
	// Sample each phase's read-completion CDF on a common grid.
	const tMax, step = 600.0, 5.0
	grid := int(tMax/step) + 1
	for m := 3; m < 8; m++ {
		var durs []float64
		for _, ph := range ensembleio.Phases(run) {
			if ph.Name == fmt.Sprintf("W-rw-%d", m) {
				for _, e := range ph.Events {
					if e.Op == ensembleio.OpRead {
						durs = append(durs, float64(e.Dur))
					}
				}
			}
		}
		d := ensembleio.NewDataset(durs)
		ecdf := d.ECDF()
		curve := make([]float64, grid)
		for i := 0; i < grid; i++ {
			curve[i] = ecdf.Eval(float64(i) * step)
		}
		curves = append(curves, curve)
	}
	for i := 0; i < grid; i++ {
		row := []string{report.F(float64(i)*step, 0)}
		for _, c := range curves {
			row = append(row, report.F(c[i], 3))
		}
		rows = append(rows, row)
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	fmt.Fprintln(txt, "fraction of reads complete vs time, per W phase (reads 4-8):")
	for i, c := range curves {
		t50 := "-"
		for j, v := range c {
			if v >= 0.5 {
				t50 = report.F(float64(j)*step, 0)
				break
			}
		}
		t95 := "-"
		for j, v := range c {
			if v >= 0.95 {
				t95 = report.F(float64(j)*step, 0)
				break
			}
		}
		fmt.Fprintf(txt, "  %s: 50%% complete by %ss, 95%% by %ss\n", names[i], t50, t95)
	}
	return "reads 4-8 CDFs shift right progressively (paper: progressive deterioration)", nil
}

func fig5b(txt, csv io.Writer) (string, error) {
	before := ensembleio.Durations(madRun("franklin"), ensembleio.OpRead)
	after := ensembleio.Durations(madRun("patched"), ensembleio.OpRead)
	hb := ensembleio.NewHistogram(ensembleio.LogBins(0.5, 1000, 4))
	hb.AddAll(before)
	ha := ensembleio.NewHistogram(ensembleio.LogBins(0.5, 1000, 4))
	ha.AddAll(after)
	report.Histogram(txt, "reads before patch (s), log bins", hb)
	fmt.Fprintln(txt)
	report.Histogram(txt, "reads after patch (s), log bins", ha)
	rows := [][]string{{"bin_lo_s", "bin_hi_s", "count_before", "count_after"}}
	for i := 0; i < hb.Bins.N(); i++ {
		rows = append(rows, []string{
			report.F(hb.Bins.Edges[i], 3), report.F(hb.Bins.Edges[i+1], 3),
			report.F(hb.Counts()[i], 0), report.F(ha.Counts()[i], 0),
		})
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	return fmt.Sprintf("slowest read %.0fs -> %.0fs after patch (paper: 500s tail removed)", before.Max(), after.Max()), nil
}

func fig5c(txt, csv io.Writer) (string, error) {
	bug, patched := madRun("franklin"), madRun("patched")
	fmt.Fprintf(txt, "patched Franklin run: %.0fs (before: %.0fs)\n\n", float64(patched.Wall), float64(bug.Wall))
	fmt.Fprint(txt, ensembleio.TraceDiagram(patched, 110, 16))
	rows := [][]string{
		{"configuration", "wall_s"},
		{"franklin-bug", report.F(float64(bug.Wall), 0)},
		{"franklin-patched", report.F(float64(patched.Wall), 0)},
		{"jaguar", report.F(float64(madRun("jaguar").Wall), 0)},
	}
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	return fmt.Sprintf("%.0fs -> %.0fs, %.1fx (paper: 2200s -> 520s, 4.2x)",
		float64(bug.Wall), float64(patched.Wall), float64(bug.Wall/patched.Wall)), nil
}

func fig6(txt, csv io.Writer) (string, error) {
	rows := [][]string{{"configuration", "wall_s", "sustained_MBps", "data_med_MBps", "speedup_vs_baseline"}}
	base := float64(gcrmRun(0).Wall)
	for stage := 0; stage < 4; stage++ {
		run := gcrmRun(stage)
		data := ensembleio.DataWrites(run)
		fmt.Fprintf(txt, "== %s: %.0fs, sustained %.0f MB/s ==\n", run.Name, float64(run.Wall), run.AggregateMBps())
		h := ensembleio.NewHistogram(ensembleio.LogBins(1e-3, 1e3, 4))
		h.AddAll(data)
		report.Histogram(txt, "data writes, sec/MB (left = fast)", h)
		s := ensembleio.RateSeries(run, ensembleio.OpWrite, 1.0)
		report.Series(txt, "aggregate write rate (MB/s)", float64(s.T0), float64(s.Dt), s.Values, 100)
		fmt.Fprintln(txt)
		rows = append(rows, []string{
			run.Name, report.F(float64(run.Wall), 0), report.F(run.AggregateMBps(), 0),
			report.F(1/data.Quantile(0.5), 2), report.F(base/float64(run.Wall), 2),
		})
	}
	report.Table(txt, rows)
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	return fmt.Sprintf("%.0fs -> %.0fs -> %.0fs -> %.0fs (paper: 310 -> 190 -> 150 -> 75)",
		float64(gcrmRun(0).Wall), float64(gcrmRun(1).Wall), float64(gcrmRun(2).Wall), float64(gcrmRun(3).Wall)), nil
}

func figWriters(txt, csv io.Writer) (string, error) {
	// Fixed total volume (2 TB, large enough that page-cache absorption
	// is negligible at every writer count) in 512 MB transfers, varying
	// writer count, walls averaged over 3 seeds: a writer count
	// "saturates" when adding more writers no longer shortens the job.
	counts := []int{16, 32, 48, 80, 160, 320, 1024}
	pts := ensembleio.IORWriterSweepProgress(machineFor("franklin"), counts, 4096, 512e6,
		[]int64{*seed, *seed + 1, *seed + 2}, *jobs, meter)
	best := pts[len(pts)-1].WallSec
	for _, p := range pts {
		if p.WallSec < best {
			best = p.WallSec
		}
	}
	rows := [][]string{{"writers", "wall_s", "slowdown_vs_best"}}
	for _, p := range pts {
		rows = append(rows, []string{fmt.Sprint(p.Writers), report.F(p.WallSec, 0), report.F(p.WallSec/best, 2)})
	}
	report.Table(txt, rows)
	if err := report.CSV(csv, rows); err != nil {
		return "", err
	}
	sat, _ := ensembleio.SaturationPoint(pts, 1.5)
	return fmt.Sprintf("saturation (within 1.5x of best) from %d writers (paper: ~80 tasks saturate)", sat), nil
}
