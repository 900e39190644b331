// Command madbench runs the MADbench out-of-core I/O kernel (§IV) and
// prints the per-phase breakdown, the read/write duration histograms
// (log-binned, as in Figure 4c), and the advisor's findings — the
// workflow that isolated the Lustre strided read-ahead defect.
//
// Usage:
//
//	madbench [-machine franklin|franklin-patched|jaguar] [-tasks N]
//	         [-matrices N] [-seed N] [-faults scenario.json]
//	         [-trace FILE] [-json] [-traceformat binary|jsonl|chrome|spans]
//	         [-telemetry FILE] [-prof PREFIX] [-version]
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
	log.SetPrefix("madbench: ")
	var (
		machine  = flag.String("machine", "franklin", "platform profile: franklin, franklin-patched, jaguar")
		tasks    = flag.Int("tasks", 256, "MPI tasks")
		matrices = flag.Int("matrices", 8, "matrices per task")
		seed     = flag.Int64("seed", 1, "run seed")
		scenario = flag.String("faults", "", "inject the fault scenario from this JSON file")
		trace    = flag.String("trace", "", "write the IPM-I/O trace to this file")
		jsonOut  = flag.Bool("json", false, "with -trace, write JSON lines instead of binary")
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
	if err := checkFlags(*tasks, *matrices); err != nil {
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
		if *jsonOut {
			*format = "jsonl"
		}
	}
	switch *format {
	case "binary", "jsonl", "chrome", "spans":
	default:
		log.Fatalf("unknown -traceformat %q (want binary, jsonl, chrome, or spans)", *format)
	}
	withTel := *telOut != "" || *format == "chrome" || *format == "spans"

	var prof ensembleio.Platform
	switch *machine {
	case "franklin":
		prof = ensembleio.Franklin()
	case "franklin-patched":
		prof = ensembleio.FranklinPatched()
	case "jaguar":
		prof = ensembleio.Jaguar()
	default:
		log.Fatalf("unknown machine %q", *machine)
	}
	var fs *ensembleio.Scenario
	if *scenario != "" {
		var err error
		if fs, err = ensembleio.LoadScenario(*scenario); err != nil {
			log.Fatal(err)
		}
	}
	run := ensembleio.RunMADbench(ensembleio.MADbenchConfig{
		Machine:   prof,
		Tasks:     *tasks,
		Matrices:  *matrices,
		Faults:    fs,
		Seed:      *seed,
		Telemetry: withTel,
	})

	fmt.Printf("MADbench on %s: %d tasks, %d matrices\n", *machine, *tasks, *matrices)
	if fs != nil {
		fmt.Printf("faults: %s\n", fs)
	}
	fmt.Printf("run time: %.0f s   aggregate: %.0f MB/s\n\n", float64(run.Wall), run.AggregateMBps())

	rows := [][]string{{"phase", "duration (s)", "read med (s)", "read p95 (s)", "write med (s)"}}
	for _, ph := range ensembleio.Phases(run) {
		reads := ensembleio.NewDataset(nil)
		writes := ensembleio.NewDataset(nil)
		for _, e := range ph.Events {
			switch e.Op {
			case ensembleio.OpRead:
				reads.Add(float64(e.Dur))
			case ensembleio.OpWrite:
				writes.Add(float64(e.Dur))
			}
		}
		row := []string{ph.Name, report.F(float64(ph.EndT-ph.StartT), 1)}
		if reads.Len() > 0 {
			row = append(row, report.F(reads.Quantile(0.5), 1), report.F(reads.Quantile(0.95), 1))
		} else {
			row = append(row, "-", "-")
		}
		if writes.Len() > 0 {
			row = append(row, report.F(writes.Quantile(0.5), 1))
		} else {
			row = append(row, "-")
		}
		rows = append(rows, row)
	}
	report.Table(os.Stdout, rows)

	reads := ensembleio.Durations(run, ensembleio.OpRead)
	writes := ensembleio.Durations(run, ensembleio.OpWrite)
	hr := ensembleio.NewHistogram(ensembleio.LogBins(0.5, 1000, 4))
	hr.AddAll(reads)
	hw := ensembleio.NewHistogram(ensembleio.LogBins(0.5, 1000, 4))
	hw.AddAll(writes)
	fmt.Println()
	report.Histogram(os.Stdout, "read durations, log bins (s)", hr)
	fmt.Println()
	report.Histogram(os.Stdout, "write durations, log bins (s)", hw)

	if findings := ensembleio.Diagnose(run); len(findings) > 0 {
		fmt.Println("\nadvisor findings:")
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
	} else {
		fmt.Println("\nadvisor findings: none")
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

// checkFlags rejects the values RunMADbench would silently replace with
// a default (0 tasks runs 256, 0 matrices runs 8) or crash on.
func checkFlags(tasks, matrices int) error {
	switch {
	case tasks < 1:
		return fmt.Errorf("-tasks %d: want at least 1", tasks)
	case matrices < 1:
		return fmt.Errorf("-matrices %d: want at least 1", matrices)
	}
	return nil
}
