// Command gcrmio runs the GCRM I/O kernel (§V) in any of its four
// configurations — baseline, collective buffering, +alignment,
// +metadata aggregation — and prints the size-normalized per-task rate
// histogram (as in Figure 6c/f/i/l) and the advisor's findings.
//
// Usage:
//
//	gcrmio [-tasks N] [-aggregators N] [-twostage] [-align]
//	       [-metaagg] [-seed N] [-trace FILE] [-faults scenario.json]
//	       [-traceformat binary|jsonl|chrome|spans] [-telemetry FILE]
//	       [-prof PREFIX] [-version]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ensembleio"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gcrmio: ")
	var (
		tasks    = flag.Int("tasks", 10240, "model tasks whose records are dumped")
		aggs     = flag.Int("aggregators", 0, "writer ranks (0 = every task writes; 80 = the paper's collective setting)")
		twoStage = flag.Bool("twostage", false, "run all tasks and gather to aggregators over MPI (stage one + two)")
		align    = flag.Bool("align", false, "pad records to 1 MB boundaries (Fig 6g)")
		metaagg  = flag.Bool("metaagg", false, "aggregate metadata into one deferred write at close (Fig 6j)")
		seed     = flag.Int64("seed", 1, "run seed")
		trace    = flag.String("trace", "", "write the IPM-I/O trace to this file")
		scenario = flag.String("faults", "", "inject the fault scenario from this JSON file")
		format   = flag.String("traceformat", "", "trace encoding: binary, jsonl, chrome, spans (default binary; chrome/spans need telemetry)")
		telOut   = flag.String("telemetry", "", "write the telemetry metric snapshot (JSON) to this file")
		profOut  = flag.String("prof", "", "write wall-clock CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.Version())
		return
	}
	if err := checkFlags(*tasks, *aggs); err != nil {
		cliutil.UsageFatal(err)
	}
	stopProf, err := cliutil.StartProfiles(*profOut)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()
	if *format == "" {
		*format = "binary"
	}
	switch *format {
	case "binary", "jsonl", "chrome", "spans":
	default:
		log.Fatalf("unknown -traceformat %q (want binary, jsonl, chrome, or spans)", *format)
	}
	withTel := *telOut != "" || *format == "chrome" || *format == "spans"
	var fs *ensembleio.Scenario
	if *scenario != "" {
		if fs, err = ensembleio.LoadScenario(*scenario); err != nil {
			log.Fatal(err)
		}
	}

	run := ensembleio.RunGCRM(ensembleio.GCRMConfig{
		Machine:           ensembleio.Franklin(),
		Tasks:             *tasks,
		Aggregators:       *aggs,
		TwoStage:          *twoStage,
		Align:             *align,
		AggregateMetadata: *metaagg,
		Faults:            fs,
		Seed:              *seed,
		Telemetry:         withTel,
	})

	fmt.Printf("GCRM %s: %d tasks", run.Name, *tasks)
	if *aggs > 0 {
		fmt.Printf(", %d aggregators", *aggs)
	}
	fmt.Println()
	fmt.Printf("run time: %.0f s   sustained: %.0f MB/s\n\n", float64(run.Wall), run.AggregateMBps())

	// Size-normalized per-task histogram: sec/MB for data and metadata
	// populations separately, the presentation of Figure 6.
	data := ensembleio.DataWrites(run)
	if data.Len() > 0 {
		h := ensembleio.NewHistogram(ensembleio.LogBins(1e-3, 1e3, 4))
		h.AddAll(data)
		report.Histogram(os.Stdout, "data writes, sec/MB (left = fast)", h)
		fmt.Printf("median per-task rate: %.2f MB/s\n\n", 1/data.Quantile(0.5))
	}
	meta := ensembleio.NewDataset(nil)
	for _, e := range run.Collector.Events {
		if e.Op == ensembleio.OpWrite && e.Bytes > 0 && e.Bytes <= 64<<10 && e.Dur > 0 {
			meta.Add(float64(e.Dur) / (float64(e.Bytes) / 1e6))
		}
	}
	if meta.Len() > 0 {
		h := ensembleio.NewHistogram(ensembleio.LogBins(1e-3, 1e5, 4))
		h.AddAll(meta)
		report.Histogram(os.Stdout, "metadata writes, sec/MB", h)
		fmt.Println()
	}

	if findings := ensembleio.Diagnose(run); len(findings) > 0 {
		fmt.Println("advisor findings:")
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
	} else {
		fmt.Println("advisor findings: none")
	}

	if *trace != "" {
		if err := saveTrace(*trace, run, *format); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s (%s)\n", *trace, *format)
	}
	if *telOut != "" {
		if err := saveTelemetry(*telOut, run); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry written to %s\n", *telOut)
	}
}

// saveTrace persists the run, surfacing write errors deferred to
// close time (a trace truncated by ENOSPC must not pass silently).
func saveTrace(path string, run *ensembleio.Run, format string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	switch format {
	case "jsonl":
		return ensembleio.SaveTraceJSON(f, run)
	case "chrome":
		return ensembleio.SaveChromeTrace(f, run)
	case "spans":
		return ensembleio.SaveSpans(f, run)
	}
	return ensembleio.SaveTrace(f, run)
}

func saveTelemetry(path string, run *ensembleio.Run) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return ensembleio.SaveTelemetry(f, run)
}

// checkFlags rejects the values RunGCRM would silently replace with a
// default (0 tasks runs 10240), ignore (negative aggregators) or crash
// on (no ranks, tasks that do not divide evenly among aggregators).
func checkFlags(tasks, aggs int) error {
	switch {
	case tasks < 1:
		return fmt.Errorf("-tasks %d: want at least 1", tasks)
	case aggs < 0:
		return fmt.Errorf("-aggregators %d: want 0 (every task writes) or more", aggs)
	case aggs > 0 && tasks%aggs != 0:
		return fmt.Errorf("-tasks %d does not divide evenly among -aggregators %d", tasks, aggs)
	}
	return nil
}
