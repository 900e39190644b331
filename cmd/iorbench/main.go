// Command iorbench runs the IOR micro-benchmark (§III) on the
// simulated machine and prints the ensemble analysis: moments, the
// completion-time histogram with its detected modes, and the advisor's
// findings.
//
// Usage:
//
//	iorbench [-machine franklin|franklin-patched|jaguar] [-tasks N]
//	         [-block BYTES] [-transfer BYTES] [-reps N] [-seed N]
//	         [-fpp] [-stripes N] [-faults scenario.json]
//	         [-trace FILE] [-json] [-traceformat binary|jsonl|chrome|spans]
//	         [-telemetry FILE] [-prof PREFIX] [-version]
//
// -traceformat chrome writes Chrome trace-event JSON loadable in
// Perfetto; spans writes the compact JSONL span format. Both require
// telemetry, which they enable implicitly (as does -telemetry).
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
	log.SetPrefix("iorbench: ")
	var (
		machine  = flag.String("machine", "franklin", "platform profile: franklin, franklin-patched, jaguar")
		tasks    = flag.Int("tasks", 1024, "MPI tasks")
		block    = flag.Int64("block", 512e6, "bytes written per task per repetition")
		transfer = flag.Int64("transfer", 0, "bytes per write call (default: whole block)")
		reps     = flag.Int("reps", 5, "synchronous repetitions")
		seed     = flag.Int64("seed", 1, "run seed (vary to model run-to-run conditions)")
		fpp      = flag.Bool("fpp", false, "file per process instead of one shared file")
		stripes  = flag.Int("stripes", 0, "stripe count for created files (0 = all OSTs)")
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
	if err := checkFlags(*tasks, *block, *transfer, *reps); err != nil {
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
	// Chrome/span export and metric snapshots all need the run-scoped
	// telemetry sink.
	withTel := *telOut != "" || *format == "chrome" || *format == "spans"

	prof, err := platform(*machine)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := loadScenario(*scenario)
	if err != nil {
		log.Fatal(err)
	}
	run := ensembleio.RunIOR(ensembleio.IORConfig{
		Machine:        prof,
		Tasks:          *tasks,
		BlockBytes:     *block,
		TransferBytes:  *transfer,
		Reps:           *reps,
		FilePerProcess: *fpp,
		StripeCount:    *stripes,
		Faults:         fs,
		Seed:           *seed,
		Telemetry:      withTel,
	})

	fmt.Printf("IOR %s: %d tasks x %d MB (transfer %d MB) x %d reps\n",
		*machine, *tasks, *block/1e6, effTransfer(*block, *transfer)/1e6, *reps)
	if fs != nil {
		fmt.Printf("faults: %s\n", fs)
	}
	fmt.Printf("run time: %.1f s   aggregate: %.0f MB/s\n\n", float64(run.Wall), run.AggregateMBps())

	writes := ensembleio.Durations(run, ensembleio.OpWrite)
	fmt.Println("write-call durations:", writes.Moments())
	h := ensembleio.NewHistogram(ensembleio.LinearBins(0, writes.Max()*1.01, 80))
	h.AddAll(writes)
	fmt.Println()
	report.Histogram(os.Stdout, "write completion times (s)", h)

	modes := h.Modes(ensembleio.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})
	fmt.Println()
	report.Table(os.Stdout, report.ModeTable(modes, "s"))

	if findings := ensembleio.Diagnose(run); len(findings) > 0 {
		fmt.Println("\nadvisor findings:")
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
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

func platform(name string) (ensembleio.Platform, error) {
	switch name {
	case "franklin":
		return ensembleio.Franklin(), nil
	case "franklin-patched":
		return ensembleio.FranklinPatched(), nil
	case "jaguar":
		return ensembleio.Jaguar(), nil
	}
	return ensembleio.Platform{}, fmt.Errorf("unknown machine %q", name)
}

func loadScenario(path string) (*ensembleio.Scenario, error) {
	if path == "" {
		return nil, nil
	}
	return ensembleio.LoadScenario(path)
}

// checkFlags rejects the values RunIOR would silently replace with a
// default (0 tasks runs 1024, 0 reps runs 1), turn into a nonsense run
// (negative sizes or reps), or crash on (no ranks, a block that is not
// a whole number of transfers).
func checkFlags(tasks int, block, transfer int64, reps int) error {
	switch {
	case tasks < 1:
		return fmt.Errorf("-tasks %d: want at least 1", tasks)
	case block < 1:
		return fmt.Errorf("-block %d: want at least 1 byte", block)
	case transfer < 0:
		return fmt.Errorf("-transfer %d: want at least 1 byte, or 0 for the whole block", transfer)
	case block%effTransfer(block, transfer) != 0:
		return fmt.Errorf("-block %d is not a multiple of -transfer %d", block, transfer)
	case reps < 1:
		return fmt.Errorf("-reps %d: want at least 1", reps)
	}
	return nil
}

func effTransfer(block, transfer int64) int64 {
	if transfer == 0 {
		return block
	}
	return transfer
}

func saveTrace(path string, run *ensembleio.Run, format string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Write errors can surface at close; a truncated trace must not
	// pass silently.
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
