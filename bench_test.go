package ensembleio

// Benchmark harness: one benchmark per reproduced figure (the
// regeneration path for every evaluation artifact in the paper), plus
// ablation benches for the design choices called out in DESIGN.md §5
// and micro-benchmarks of the statistical core.
//
// Figure benches report the simulated wall time (sim_s) and the
// aggregate data rate (sim_MB/s) of the reproduced experiment so the
// paper-vs-measured comparison can be read straight off `go test
// -bench`.

import (
	"bytes"
	"fmt"
	"testing"
)

func reportRun(b *testing.B, run *Run) {
	b.ReportMetric(float64(run.Wall), "sim_s")
	b.ReportMetric(run.AggregateMBps(), "sim_MB/s")
}

// --- Figure 1: IOR 512 MB transfers, 1024 tasks ---

func BenchmarkFig1_IOR512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := RunIOR(IORConfig{Machine: Franklin(), Tasks: 1024, Reps: 5, Seed: int64(i + 1)})
		reportRun(b, run)
	}
}

// --- Figure 2: transfer splitting (Law of Large Numbers) ---

// BenchmarkFig2_LLN regenerates the whole Figure 2 ensemble per
// iteration — the transfer sweep over k=1,2,4,8 averaged over three
// seeds, exactly the experiment cmd/paperfig renders — through the
// runpool-parallel sweep driver. This is the headline perf number for
// "regenerate the paper's artifacts": twelve independent simulations
// fanned across all cores with an ordered (byte-stable) reduction.
func BenchmarkFig2_LLN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := IORTransferSweep(IORConfig{Machine: Franklin(), Tasks: 1024, Reps: 5},
			[]int{1, 2, 4, 8}, []int64{1, 2, 3})
		b.ReportMetric(pts[0].MeanRateMBps, "k1_MB/s")
		b.ReportMetric(pts[len(pts)-1].MeanRateMBps, "k8_MB/s")
	}
}

// BenchmarkFig2_LLN_Sequential is the same experiment pinned to one
// worker — the before/after for the parallel executor (and the
// reference that -j only changes speed, never results).
func BenchmarkFig2_LLN_Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := IORTransferSweepJ(IORConfig{Machine: Franklin(), Tasks: 1024, Reps: 5},
			[]int{1, 2, 4, 8}, []int64{1, 2, 3}, 1)
		b.ReportMetric(pts[0].MeanRateMBps, "k1_MB/s")
	}
}

// --- Figure 4: MADbench on the two platforms ---

func BenchmarkFig4_MADbenchFranklin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRun(b, RunMADbench(MADbenchConfig{Machine: Franklin(), Seed: int64(i + 1)}))
	}
}

func BenchmarkFig4_MADbenchJaguar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRun(b, RunMADbench(MADbenchConfig{Machine: Jaguar(), Seed: int64(i + 1)}))
	}
}

// --- Figure 5: Franklin after the Lustre patch ---

func BenchmarkFig5_MADbenchFranklinPatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRun(b, RunMADbench(MADbenchConfig{Machine: FranklinPatched(), Seed: int64(i + 1)}))
	}
}

// --- Figure 6: GCRM baseline and the three optimizations ---

func benchGCRM(b *testing.B, stage int) {
	for i := 0; i < b.N; i++ {
		cfg := GCRMConfig{Machine: Franklin(), Seed: int64(i + 1)}
		if stage >= 1 {
			cfg.Aggregators = 80
		}
		if stage >= 2 {
			cfg.Align = true
		}
		if stage >= 3 {
			cfg.AggregateMetadata = true
		}
		reportRun(b, RunGCRM(cfg))
	}
}

func BenchmarkFig6_GCRMBaseline(b *testing.B)   { benchGCRM(b, 0) }
func BenchmarkFig6_GCRMCollective(b *testing.B) { benchGCRM(b, 1) }
func BenchmarkFig6_GCRMAligned(b *testing.B)    { benchGCRM(b, 2) }
func BenchmarkFig6_GCRMMetaAgg(b *testing.B)    { benchGCRM(b, 3) }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_SlotScheduling contrasts the stream-slot flusher
// against pure fair sharing: with slots forced to "all", the harmonic
// mode structure of Figure 1c collapses to a single mode.
func BenchmarkAblation_SlotScheduling(b *testing.B) {
	for _, mode := range []struct {
		name    string
		weights [3]float64
	}{
		{"mixed-slots", Franklin().SlotWeights},
		{"fair-only", [3]float64{0, 0, 1}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := Franklin()
				m.SlotWeights = mode.weights
				run := RunIOR(IORConfig{Machine: m, Tasks: 1024, Reps: 5, Seed: int64(i + 1)})
				writes := Durations(run, OpWrite)
				h := NewHistogram(LinearBins(0, writes.Max()*1.01, 100))
				h.AddAll(writes)
				modes := h.Modes(ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})
				b.ReportMetric(float64(len(modes)), "modes")
				reportRun(b, run)
			}
		})
	}
}

// BenchmarkAblation_StridedPatch contrasts the strided read-ahead
// defect against the patched client (the Figure 5 before/after).
func BenchmarkAblation_StridedPatch(b *testing.B) {
	for _, mode := range []struct {
		name  string
		patch bool
	}{{"bug", false}, {"patched", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := Franklin()
				m.PatchStridedReadahead = mode.patch
				reportRun(b, RunMADbench(MADbenchConfig{Machine: m, Seed: int64(i + 1)}))
			}
		})
	}
}

// BenchmarkAblation_ConflictModel removes the extent-lock conflict
// stalls from the GCRM baseline, isolating their contribution to the
// baseline's straggler-driven slowness.
func BenchmarkAblation_ConflictModel(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"conflicts-on", true}, {"conflicts-off", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := Franklin()
				if !mode.on {
					m.ConflictProbPerWriterPerOST = 0
					m.ConflictProbMax = 0
				}
				reportRun(b, RunGCRM(GCRMConfig{Machine: m, Seed: int64(i + 1)}))
			}
		})
	}
}

// BenchmarkAblation_OSTLuck removes the non-work-conserving slow-OST
// tail, which eliminates most of the Figure 2 splitting benefit.
func BenchmarkAblation_OSTLuck(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"luck-on", true}, {"luck-off", false}} {
		mode := mode
		for _, k := range []int{1, 8} {
			k := k
			b.Run(fmt.Sprintf("%s/k=%d", mode.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := Franklin()
					if !mode.on {
						m.SlowLuckProb = 0
					}
					run := RunIOR(IORConfig{
						Machine: m, Tasks: 1024, Reps: 5,
						TransferBytes: 512e6 / int64(k), Seed: int64(i + 1),
					})
					reportRun(b, run)
				}
			})
		}
	}
}

// --- Telemetry overhead ---

// benchTelemetry is the telemetry cost probe: the same mid-size IOR
// run with the sink on or off. The disabled variant is the number the
// bench guard watches — a nil sink must cost only dead nil-checks, so
// Disabled should be statistically indistinguishable from the
// pre-telemetry baseline, and Enabled bounds the price of -trace.
func benchTelemetry(b *testing.B, enabled bool) {
	for i := 0; i < b.N; i++ {
		run := RunIOR(IORConfig{
			Machine: Franklin(), Tasks: 256, Reps: 3,
			Seed: int64(i + 1), Telemetry: enabled,
		})
		if enabled && run.Telemetry == nil {
			b.Fatal("telemetry requested but absent")
		}
		reportRun(b, run)
	}
}

func BenchmarkTelemetryDisabled(b *testing.B) { benchTelemetry(b, false) }
func BenchmarkTelemetryEnabled(b *testing.B)  { benchTelemetry(b, true) }

// --- Statistical core micro-benchmarks ---

func syntheticDataset(n int) *Dataset {
	xs := make([]float64, n)
	v := 1.0
	for i := range xs {
		v = v*1103515245 + 12345
		if v > 1e18 {
			v /= 1e12
		}
		xs[i] = 5 + 30*float64(i%97)/97 + v/1e18
	}
	return NewDataset(xs)
}

func BenchmarkEnsemble_HistogramAdd(b *testing.B) {
	h := NewHistogram(LinearBins(0, 50, 200))
	d := syntheticDataset(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AddAll(d)
	}
}

func BenchmarkEnsemble_Modes(b *testing.B) {
	h := NewHistogram(LinearBins(0, 50, 200))
	h.AddAll(syntheticDataset(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Modes(ModeOpts{})
	}
}

func BenchmarkEnsemble_KS(b *testing.B) {
	x := syntheticDataset(100000)
	y := syntheticDataset(100001)
	x.Sorted()
	y.Sorted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KS(x, y)
	}
}

func BenchmarkEnsemble_ConvolveK8(b *testing.B) {
	h := NewHistogram(LinearBins(0, 50, 256))
	h.AddAll(syntheticDataset(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveK(h, 8)
	}
}

func BenchmarkEnsemble_ExpectedMax(b *testing.B) {
	h := NewHistogram(LinearBins(0, 50, 256))
	h.AddAll(syntheticDataset(10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedMax(h, 1024)
	}
}

// --- Trace codec throughput ---

func BenchmarkTraceCodec_Binary(b *testing.B) {
	run := cachedBenchRun()
	var buf bytes.Buffer
	if err := SaveTrace(&buf, run); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := SaveTrace(&buf, run); err != nil {
			b.Fatal(err)
		}
		if _, _, err := LoadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

var benchRun *Run

func cachedBenchRun() *Run {
	if benchRun == nil {
		benchRun = RunIOR(IORConfig{Machine: Franklin(), Tasks: 256, Reps: 3, Seed: 42})
	}
	return benchRun
}

// BenchmarkSimulatorThroughput measures raw simulator speed on the
// largest workload (GCRM baseline, 10,240 tasks): a fixed four-seed
// ensemble fanned across all cores per iteration. sim_s is the
// aggregate simulated time delivered per iteration; on an N-core
// runner the runpool fan-out plus the typed event heap should deliver
// it severalfold faster than the old one-run-at-a-time loop.
func BenchmarkSimulatorThroughput(b *testing.B) {
	seeds := []int64{1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		runs := RunMany(0, seeds, func(s int64) *Run {
			return RunGCRM(GCRMConfig{Machine: Franklin(), Seed: s})
		})
		simSec := 0.0
		for _, r := range runs {
			simSec += float64(r.Wall)
		}
		b.ReportMetric(simSec, "sim_s")
	}
}

// BenchmarkSimulatorThroughputSingle is one GCRM run per iteration —
// the single-thread engine hot path in isolation (event heap, RNG,
// flusher), with no fan-out masking regressions.
func BenchmarkSimulatorThroughputSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := RunGCRM(GCRMConfig{Machine: Franklin(), Seed: int64(i + 1)})
		b.ReportMetric(float64(run.Wall), "sim_s")
	}
}

// BenchmarkFastForward is the end-to-end face of the fabric's
// fast-forwarding: the flagship GCRM run, whose long uniform write
// storms the completion calendar crosses in single analytic jumps.
func BenchmarkFastForward(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := RunGCRM(GCRMConfig{Machine: Franklin(), Seed: int64(i + 1)})
			b.ReportMetric(float64(run.Wall), "sim_s")
		}
	})
}

// --- Content-addressed cache (cascache) hot paths ---

// cacheBenchGrid is the headline campaign shape from the cache design:
// n scenarios with ~50% duplicates (each unique scenario appears
// twice), spread over 25 generated workloads.
func cacheBenchGrid(n int) []CampaignEntry {
	entries := make([]CampaignEntry, 0, n)
	for i := 0; i < n; i++ {
		u := int64(i / 2)
		entries = append(entries, CampaignEntry{
			Name:     "grid",
			Spec:     GenerateWorkload(u % 25),
			Platform: Franklin(),
			Seed:     u / 25,
		})
	}
	return entries
}

// BenchmarkCacheHitMRU is the pure serve path: Gets against an entry
// already resident in the in-process MRU layer, batched 1024 per
// iteration so -benchtime 1x sits above timer granularity. This is
// the per-scenario cost a warm campaign pays, so allocs/op is gated
// exactly (bench-guard treats a zero memory baseline as "any
// allocation is a regression") to keep the hot path heap-free.
func BenchmarkCacheHitMRU(b *testing.B) {
	store, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := GenerateWorkload(1)
	key, err := ScenarioCacheKey(spec, Franklin(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Put(key, CacheMeta{Workload: spec.Name, Seed: 1},
		[]CacheArtifact{{Name: "trace.bin", Data: bytes.Repeat([]byte{0xab}, 4096)}}); err != nil {
		b.Fatal(err)
	}
	if _, ok := store.Get(key); !ok {
		b.Fatal("warm-up Get missed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			if _, ok := store.Get(key); !ok {
				b.Fatal("MRU Get missed")
			}
		}
	}
}

// BenchmarkCacheCampaignCold100 runs the acceptance campaign — 100
// scenarios, ~50% duplicates — against an empty store: every unique
// scenario simulates, then publishes. BenchmarkCacheCampaignWarm100
// is the same grid against the populated store: nothing simulates.
// The checked-in ratio between the two (warm >= 2x cold, in practice
// far more) is the cache's reason to exist; bench-guard holds both
// sides to their checked-in numbers.
func BenchmarkCacheCampaignCold100(b *testing.B) {
	entries := cacheBenchGrid(100)
	for i := 0; i < b.N; i++ {
		store, err := OpenCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := RunCampaign(entries, CampaignOptions{Workers: 4, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Misses != stats.Unique {
			b.Fatalf("cold stats %+v", stats)
		}
	}
}

func BenchmarkCacheCampaignWarm100(b *testing.B) {
	entries := cacheBenchGrid(100)
	store, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := RunCampaign(entries, CampaignOptions{Workers: 4, Store: store}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := RunCampaign(entries, CampaignOptions{Workers: 4, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Misses != 0 || stats.Hits != stats.Unique {
			b.Fatalf("warm stats %+v", stats)
		}
	}
}
