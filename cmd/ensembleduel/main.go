// Command ensembleduel co-schedules two or more declarative workload
// specs on one shared simulated platform and reports LASSi-style
// interference metrics: per-tenant I/O-time shares, contention
// windows on the shared OSTs, and an overlap-weighted victim/
// aggressor ranking against automatically simulated solo baselines.
//
// Usage:
//
//	ensembleduel -spec a.json -spec b.json [-stagger 0,5]
//	    [-machine franklin|franklin-patched|jaguar] [-seed N]
//	    [-faults scenario.json]
//	    [-cache DIR] [-cache-verify]
//	    [-telemetry FILE] [-spans FILE] [-report FILE] [-out DIR]
//	    [-binsec F] [-top N] [-json] [-prof PREFIX] [-version]
//
// Each -spec adds one tenant; its name defaults to the spec's name
// (sanitized to [A-Za-z0-9_-], deduplicated). -stagger gives the
// start offsets: a comma list assigns per-tenant offsets in order; a
// single value starts tenant i at i*value. -out writes the full
// artifact set — per-tenant traces, the merged telemetry snapshot and
// span stream, and the interference report JSON — every byte of which
// is identical across -j worker counts.
//
// -cache DIR memoizes the whole session — co-run plus the solo
// baselines — in the content-addressed run cache (internal/cascache),
// keyed on platform, faults, seed, bin width, and every tenant's spec,
// name, and start offset. A hit serves the full artifact set
// byte-identically; -cache-verify recomputes on every hit and fails on
// any difference.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ensembleio"
	"ensembleio/internal/cascache"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/report"
)

// specList accumulates repeated -spec flags.
type specList []string

func (s *specList) String() string     { return strings.Join(*s, ",") }
func (s *specList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("ensembleduel: ")
	var specs specList
	flag.Var(&specs, "spec", "workload spec JSON (repeat once per tenant)")
	var (
		machine  = flag.String("machine", "franklin", "platform profile: franklin, franklin-patched, jaguar")
		seed     = flag.Int64("seed", 1, "session seed (tenant i's body draws use seed+i)")
		stagger  = flag.String("stagger", "", "start offsets: comma list per tenant, or one value meaning i*value")
		scenario = flag.String("faults", "", "inject the fault scenario from this JSON file (co-run AND solo baselines)")
		binSec   = flag.Float64("binsec", 1, "interference activity-bin width in virtual seconds")
		top      = flag.Int("top", 10, "rows per report table")
		jsonOut  = flag.Bool("json", false, "print the interference report as JSON instead of tables")
		telOut   = flag.String("telemetry", "", "write the merged telemetry snapshot (JSON) to this file")
		spansOut = flag.String("spans", "", "write the merged span stream (JSONL) to this file")
		repOut   = flag.String("report", "", "write the interference report (JSON) to this file")
		outDir   = flag.String("out", "", "write the full artifact set into this directory")
		profOut  = flag.String("prof", "", "write CPU/heap profiles to PREFIX.{cpu,heap}.pprof")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	cacheDir, cacheVerify := cliutil.CacheFlags()
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (all inputs are flags)", flag.Arg(0))
	}
	if *version {
		fmt.Println(cliutil.Version())
		return
	}
	if len(specs) < 2 {
		log.Fatal("need at least two -spec files (one per tenant)")
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

	prof, err := platform(*machine)
	if err != nil {
		log.Fatal(err)
	}
	var fs *ensembleio.Scenario
	if *scenario != "" {
		if fs, err = ensembleio.LoadScenario(*scenario); err != nil {
			log.Fatal(err)
		}
	}
	offsets, err := staggerOffsets(*stagger, len(specs))
	if err != nil {
		log.Fatal(err)
	}

	tenants := make([]ensembleio.Tenant, len(specs))
	for i, path := range specs {
		spec, err := ensembleio.LoadWorkload(path)
		if err != nil {
			log.Fatal(err)
		}
		tenants[i] = ensembleio.Tenant{
			Name:     tenantName(spec.Name, tenants[:i]),
			Spec:     spec,
			StartSec: offsets[i],
		}
	}

	if *cacheVerify && *cacheDir == "" {
		log.Fatal("-cache-verify needs -cache DIR")
	}
	cfg := ensembleio.TenancyConfig{
		Machine:   prof,
		Seed:      *seed,
		Faults:    fs,
		Telemetry: true,
	}
	// compute runs the session (co-run plus solo baselines) and
	// serializes the full artifact set.
	compute := func() []cascache.Artifact {
		res, err := ensembleio.RunTenants(cfg, tenants)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := ensembleio.AnalyzeInterference(cfg, tenants, res, ensembleio.InterferenceConfig{BinSec: *binSec})
		if err != nil {
			log.Fatal(err)
		}
		arts, err := captureDuel(res, rep)
		if err != nil {
			log.Fatal(err)
		}
		return arts
	}

	var arts []cascache.Artifact
	var store *cascache.Store
	if *cacheDir != "" {
		if store, err = cascache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		key, err := duelKey(prof, fs, *seed, *binSec, tenants)
		if err != nil {
			log.Fatal(err)
		}
		if ent, ok := store.Get(key); ok {
			arts = ent.Artifacts
			if *cacheVerify {
				if err := cascache.DiffArtifacts(arts, compute()); err != nil {
					log.Fatalf("cache verify: %v", err)
				}
			}
		} else {
			arts = compute()
			if err := store.Put(key, duelMeta(*seed, tenants, arts), arts); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		arts = compute()
	}
	rep, totals, err := decodeDuel(arts)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		printJSON(rep)
	} else {
		printReport(totals, rep, *top)
		if store != nil {
			st := store.Stats()
			verified := ""
			if *cacheVerify {
				verified = ", verified"
			}
			fmt.Printf("cache: %d hit(s), %d miss(es)%s\n", st.Hits, st.Misses, verified)
		}
	}

	if *telOut != "" {
		writeArtifact(*telOut, arts, "session.telemetry.json")
	}
	if *spansOut != "" {
		writeArtifact(*spansOut, arts, "session.spans.jsonl")
	}
	if *repOut != "" {
		writeArtifact(*repOut, arts, "interference.json")
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, a := range arts {
			if a.Name == duelSummaryName {
				continue // internal to the cache entry
			}
			writeArtifact(filepath.Join(*outDir, a.Name), arts, a.Name)
		}
		fmt.Printf("artifacts written to %s\n", *outDir)
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

// staggerOffsets parses -stagger: empty means all zero, one value v
// means tenant i starts at i*v, a comma list assigns offsets in order
// (missing trailing entries default to 0).
func staggerOffsets(s string, n int) ([]float64, error) {
	offsets := make([]float64, n)
	if s == "" {
		return offsets, nil
	}
	parts := strings.Split(s, ",")
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-stagger %q: want non-negative seconds", p)
		}
		vals[i] = v
	}
	if len(vals) == 1 {
		for i := range offsets {
			offsets[i] = float64(i) * vals[0]
		}
		return offsets, nil
	}
	if len(vals) > n {
		return nil, fmt.Errorf("-stagger lists %d offsets for %d tenants", len(vals), n)
	}
	copy(offsets, vals)
	return offsets, nil
}

// tenantName sanitizes a spec name into a valid tenant tag and
// deduplicates it against the tenants already named.
func tenantName(name string, taken []ensembleio.Tenant) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	base := b.String()
	if base == "" {
		base = "tenant"
	}
	candidate := base
	for n := 2; ; n++ {
		clash := false
		for i := range taken {
			if taken[i].Name == candidate {
				clash = true
				break
			}
		}
		if !clash {
			return candidate
		}
		candidate = fmt.Sprintf("%s-%d", base, n)
	}
}

// writeReport serializes the interference report in its canonical
// encoding: indented JSON, struct field order, trailing newline.
func writeReport(f io.Writer, rep *ensembleio.InterferenceReport) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func printJSON(rep *ensembleio.InterferenceReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

func writeFile(path string, save func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := save(f); err != nil {
		f.Close() //lint:allow(errclose) already failing; the save error wins
		log.Fatalf("%s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// printReport renders the human-readable tables: tenants, contention
// windows, victim/aggressor ranking. totals carries each tenant's
// logical byte volume, in rep.Tenants order (it comes from the
// session summary so cache-served sessions print identically).
func printReport(totals []int64, rep *ensembleio.InterferenceReport, top int) {
	rows := [][]string{{"tenant", "start_s", "end_s", "dur_s", "solo_s", "slowdown", "io_share", "ost_share", "agg MB/s"}}
	for i, t := range rep.Tenants {
		agg := 0.0
		if i < len(totals) && t.DurationSec > 0 {
			agg = float64(totals[i]) / 1e6 / t.DurationSec
		}
		rows = append(rows, []string{
			t.Name,
			report.F(t.StartSec, 2), report.F(t.EndSec, 2), report.F(t.DurationSec, 2),
			report.F(t.SoloSec, 2), report.F(t.Slowdown, 3),
			report.F(t.IOTimeShare, 3), report.F(t.OSTBusyShare, 3),
			report.F(agg, 0),
		})
	}
	fmt.Println("tenants")
	report.Table(os.Stdout, rows)
	fmt.Println()

	if len(rep.Windows) > 0 {
		wins := rep.Windows
		if len(wins) > top {
			wins = wins[:top]
		}
		rows = [][]string{{"window", "start_s", "end_s", "tenants"}}
		for i, w := range wins {
			rows = append(rows, []string{
				fmt.Sprint(i), report.F(w.StartSec, 1), report.F(w.EndSec, 1),
				strings.Join(w.Tenants, "+"),
			})
		}
		fmt.Printf("contention windows (%d total)\n", len(rep.Windows))
		report.Table(os.Stdout, rows)
		fmt.Println()
	}

	if len(rep.Ranking) == 0 {
		fmt.Println("no interference findings (no tenant cleared the slowdown and overlap thresholds)")
		return
	}
	ranking := rep.Ranking
	if len(ranking) > top {
		ranking = ranking[:top]
	}
	rows = [][]string{{"victim", "aggressor", "slowdown", "overlap", "score", "shared OSTs"}}
	for _, p := range ranking {
		osts := make([]string, len(p.SharedOSTs))
		for i, o := range p.SharedOSTs {
			osts[i] = fmt.Sprintf("ost%03d", o)
		}
		rows = append(rows, []string{
			p.Victim, p.Aggressor,
			report.F(p.Slowdown, 3), report.F(p.OverlapFrac, 3), report.F(p.Score, 4),
			strings.Join(osts, " "),
		})
	}
	fmt.Println("victim/aggressor ranking")
	report.Table(os.Stdout, rows)
}

// Duel cache plumbing: the whole session (co-run plus solo baselines)
// is memoized under one content-addressed key. The artifact set is
// exactly the -out file set plus a small summary the tables need.

// duelSummaryName is the cache-internal artifact carrying per-tenant
// totals (it is not written by -out).
const duelSummaryName = "summary.json"

// duelSummary preserves the bits of the in-memory session the report
// tables need but the other artifacts don't carry directly.
type duelSummary struct {
	Tenants []duelTenantSummary `json:"tenants"`
}

type duelTenantSummary struct {
	Name       string `json:"name"`
	TotalBytes int64  `json:"total_bytes"`
}

// duelKey derives the session's canonical cache key. The bin width is
// included because it shapes the interference report artifact; -top
// and -json are presentation-only and excluded. Tenant names are
// included because they appear inside artifact bytes (trace file
// names, telemetry counter names).
func duelKey(prof ensembleio.Platform, fs *ensembleio.Scenario, seed int64, binSec float64, tenants []ensembleio.Tenant) (cascache.Key, error) {
	plat, err := cascache.CanonicalPlatform(prof)
	if err != nil {
		return cascache.Key{}, err
	}
	fb, err := ensembleio.CanonicalScenario(fs)
	if err != nil {
		return cascache.Key{}, err
	}
	b := cascache.NewBuilder().
		Section("kind", []byte("duel")).
		Section("platform", plat).
		Section("faults", fb).
		Int64("seed", seed).
		Float64("binsec", binSec)
	for _, t := range tenants {
		wl, err := ensembleio.CanonicalWorkloadBytes(t.Spec)
		if err != nil {
			return cascache.Key{}, err
		}
		b.Section("tenant.spec", wl).
			Section("tenant.name", []byte(t.Name)).
			Float64("tenant.start", t.StartSec)
	}
	return b.Key(), nil
}

// captureDuel serializes the session into its cache artifact set:
// the interference report, merged spans and telemetry, the summary,
// and one trace per tenant — each encoded exactly as the -out files.
func captureDuel(res *ensembleio.TenancyResult, rep *ensembleio.InterferenceReport) ([]cascache.Artifact, error) {
	var arts []cascache.Artifact
	add := func(name string, write func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return fmt.Errorf("capturing %s: %w", name, err)
		}
		arts = append(arts, cascache.Artifact{Name: name, Data: buf.Bytes()})
		return nil
	}
	if err := add("interference.json", func(w io.Writer) error { return writeReport(w, rep) }); err != nil {
		return nil, err
	}
	if err := add("session.spans.jsonl", func(w io.Writer) error {
		return ensembleio.SaveSpanList(w, res.Spans)
	}); err != nil {
		return nil, err
	}
	if err := add("session.telemetry.json", func(w io.Writer) error {
		return ensembleio.SaveTelemetrySnapshot(w, res.Telemetry)
	}); err != nil {
		return nil, err
	}
	sum := duelSummary{}
	for i := range res.Tenants {
		sum.Tenants = append(sum.Tenants, duelTenantSummary{
			Name:       res.Tenants[i].Name,
			TotalBytes: res.Tenants[i].Run.TotalBytes,
		})
	}
	if err := add(duelSummaryName, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}); err != nil {
		return nil, err
	}
	for i := range res.Tenants {
		t := &res.Tenants[i]
		if err := add(t.Name+".trace.bin", func(w io.Writer) error {
			return ensembleio.SaveTrace(w, t.Run)
		}); err != nil {
			return nil, err
		}
	}
	return arts, nil
}

// duelMeta summarizes the session for the cache index.
func duelMeta(seed int64, tenants []ensembleio.Tenant, arts []cascache.Artifact) cascache.Meta {
	names := make([]string, len(tenants))
	tasks := 0
	for i, t := range tenants {
		names[i] = t.Name
		tasks += t.Spec.Tasks
	}
	var total int64
	for _, a := range arts {
		if a.Name == duelSummaryName {
			var sum duelSummary
			if json.Unmarshal(a.Data, &sum) == nil {
				for _, t := range sum.Tenants {
					total += t.TotalBytes
				}
			}
		}
	}
	return cascache.Meta{
		Workload:   "duel:" + strings.Join(names, "+"),
		Seed:       seed,
		Tasks:      tasks,
		TotalBytes: total,
	}
}

// decodeDuel recovers the report and per-tenant totals from an
// artifact set, served or fresh.
func decodeDuel(arts []cascache.Artifact) (*ensembleio.InterferenceReport, []int64, error) {
	var rep *ensembleio.InterferenceReport
	var totals []int64
	for _, a := range arts {
		switch a.Name {
		case "interference.json":
			rep = &ensembleio.InterferenceReport{}
			if err := json.Unmarshal(a.Data, rep); err != nil {
				return nil, nil, fmt.Errorf("interference.json: %w", err)
			}
		case duelSummaryName:
			var sum duelSummary
			if err := json.Unmarshal(a.Data, &sum); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", duelSummaryName, err)
			}
			for _, t := range sum.Tenants {
				totals = append(totals, t.TotalBytes)
			}
		}
	}
	if rep == nil {
		return nil, nil, fmt.Errorf("artifact set lacks interference.json")
	}
	return rep, totals, nil
}

// writeArtifact writes one named artifact of the set to path.
func writeArtifact(path string, arts []cascache.Artifact, name string) {
	for _, a := range arts {
		if a.Name == name {
			if err := os.WriteFile(path, a.Data, 0o644); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	log.Fatalf("%s: artifact %s missing from session", path, name)
}
