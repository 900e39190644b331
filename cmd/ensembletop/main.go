// Command ensembletop summarizes telemetry snapshots into hot-spot
// tables — the "where did the virtual time go" view over one run or an
// aggregate of many. Given snapshot files written with -telemetry, it
// prints the top counters, the gauges with their high-water marks,
// histogram summaries, and (when the run carried per-OST counters) an
// OST table sorted by injected stall time so a degraded server tops
// the list. With -spans it also breaks span wall time down by
// category.
//
// Usage:
//
//	ensembletop [-top N] [-spans run.spans.jsonl] [-tenant NAME]
//	            run.telemetry.json [more.json ...]
//
// Multiple snapshots aggregate: counters and histogram summaries sum,
// gauges keep their maximum — the natural reading for an ensemble of
// runs of the same experiment.
//
// Multi-tenant session snapshots (ensembleduel) carry a per-tenant
// counter family; each tenant then gets its own fast-forwarded-
// fraction line, and -tenant NAME restricts every table (and -spans)
// to that tenant's slice of the session.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"ensembleio/internal/cliutil"
	"ensembleio/internal/ensemble/campaign"
	"ensembleio/internal/report"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tracefmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ensembletop: ")
	var (
		top     = flag.Int("top", 10, "rows per table")
		spans   = flag.String("spans", "", "also summarize this span JSONL file by category")
		tenant  = flag.String("tenant", "", "filter a multi-tenant session to one tenant (tenant.NAME.* counters, NAME/ spans)")
		prof    = flag.String("prof", "", "write CPU/heap profiles to PREFIX.{cpu,heap}.pprof")
		version = flag.Bool("version", false, "print build version and exit")
	)
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
	if flag.NArg() == 0 && *spans == "" {
		log.Fatal("usage: ensembletop [-top N] [-spans FILE] snapshot.json ...")
	}

	agg := aggregate(flag.Args())
	if agg != nil {
		printFastForward(agg)
		printTenantFastForward(agg, *tenant)
		printCacheEffectiveness(agg)
		if *tenant != "" {
			agg = filterTenant(agg, *tenant)
		}
		printCounters(agg, *top)
		printGauges(agg)
		printHists(agg, *top)
		printOSTs(agg, *top)
	}
	if *spans != "" {
		printSpans(*spans, *top, *tenant)
	}
}

// aggregate folds every snapshot file into one: counters sum, gauges
// take the max, histogram summaries merge (bins are dropped — the
// per-decade layout is only meaningful within one run). Returns nil
// when no files were given.
func aggregate(paths []string) *telemetry.Snapshot {
	if len(paths) == 0 {
		return nil
	}
	counters := map[string]float64{}
	gauges := map[string]telemetry.GaugeSnap{}
	hists := map[string]telemetry.HistSnap{}
	for _, path := range paths {
		snap := loadSnapshot(path)
		for _, c := range snap.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range snap.Gauges {
			cur, ok := gauges[g.Name]
			if !ok {
				gauges[g.Name] = g
				continue
			}
			if g.Value > cur.Value {
				cur.Value = g.Value
			}
			if g.Max > cur.Max {
				cur.Max = g.Max
			}
			gauges[g.Name] = cur
		}
		for _, h := range snap.Hists {
			cur, ok := hists[h.Name]
			if !ok {
				h.Bins = nil
				hists[h.Name] = h
				continue
			}
			cur.Count += h.Count
			cur.Under += h.Under
			cur.Sum += h.Sum
			if h.Min < cur.Min {
				cur.Min = h.Min
			}
			if h.Max > cur.Max {
				cur.Max = h.Max
			}
			hists[h.Name] = cur
		}
	}
	out := &telemetry.Snapshot{}
	for _, name := range sortedKeys(counters) {
		out.Counters = append(out.Counters, telemetry.CounterSnap{Name: name, Value: counters[name]})
	}
	for _, name := range sortedKeys(gauges) {
		out.Gauges = append(out.Gauges, gauges[name])
	}
	for _, name := range sortedKeys(hists) {
		out.Hists = append(out.Hists, hists[name])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadSnapshot(path string) *telemetry.Snapshot {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	snap, err := tracefmt.ReadMetrics(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return snap
}

// printFastForward reports how much of the aggregate's virtual time
// the fabric crossed in single analytic jumps — the headline for its
// fast-forwarding. Runs predating the sim.virtual_seconds counter (or with
// no fabric activity) print nothing.
func printFastForward(s *telemetry.Snapshot) {
	var total, ff, jumps float64
	for _, c := range s.Counters {
		switch c.Name {
		case "sim.virtual_seconds":
			total = c.Value
		case "sim.ff_seconds":
			ff = c.Value
		case "sim.ff_jumps":
			jumps = c.Value
		}
	}
	if total <= 0 {
		return
	}
	fmt.Printf("fast-forwarded %s of %s virtual seconds (%.1f%%) in %.0f jumps\n\n",
		report.F(ff, 1), report.F(total, 1), 100*ff/total, jumps)
}

// printTenantFastForward prints one fast-forward line per tenant of a
// multi-tenant session snapshot: the virtual seconds of the tenant's
// own window the fabric crossed in analytic jumps. With name set, only
// that tenant's line prints. Snapshots without tenant counters print
// nothing.
func printTenantFastForward(s *telemetry.Snapshot, name string) {
	type ffStat struct{ total, ff, jumps float64 }
	stats := map[string]*ffStat{}
	var order []string
	for _, c := range s.Counters {
		rest, ok := strings.CutPrefix(c.Name, "tenant.")
		if !ok {
			continue
		}
		tn, metric, ok := strings.Cut(rest, ".")
		if !ok || (name != "" && tn != name) {
			continue
		}
		st, ok := stats[tn]
		if !ok {
			st = &ffStat{}
			stats[tn] = st
			order = append(order, tn)
		}
		switch metric {
		case "virtual_seconds":
			st.total = c.Value
		case "ff_seconds":
			st.ff = c.Value
		case "ff_jumps":
			st.jumps = c.Value
		}
	}
	printed := false
	for _, tn := range order {
		st := stats[tn]
		if st.total <= 0 {
			continue
		}
		fmt.Printf("tenant %s: fast-forwarded %s of %s virtual seconds (%.1f%%) in %.0f jumps\n",
			tn, report.F(st.ff, 1), report.F(st.total, 1), 100*st.ff/st.total, st.jumps)
		printed = true
	}
	if printed {
		fmt.Println()
	}
}

// printCacheEffectiveness prints the one-line cache summary when the
// snapshot carries the cascache.* counter family (written by
// ensemblecampaign -telemetry; aggregates across files like any other
// counters). Snapshots without the family print nothing.
func printCacheEffectiveness(s *telemetry.Snapshot) {
	if line, ok := cacheEffectivenessLine(s); ok {
		fmt.Println(line)
		fmt.Println()
	}
}

func cacheEffectivenessLine(s *telemetry.Snapshot) (string, bool) {
	get := func(metric string) float64 { return s.Counter(campaign.CounterPrefix + metric) }
	scenarios := get("scenarios")
	if scenarios <= 0 {
		return "", false
	}
	hits, dups, misses := get("hits"), get("dup_hits"), get("misses")
	served := hits + dups
	return fmt.Sprintf("cache: served %.0f of %.0f scenario(s) (%.1f%%) — %.0f hit(s), %.0f dup(s), %.0f miss(es); %s served, %s computed",
		served, scenarios, 100*served/scenarios, hits, dups, misses,
		fmtBytes(get("bytes_served")), fmtBytes(get("bytes_computed"))), true
}

func fmtBytes(n float64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", n/(1<<10))
	}
	return fmt.Sprintf("%.0f B", n)
}

// filterTenant restricts a session snapshot to one tenant's counters,
// stripping the "tenant.NAME." prefix so the remaining tables read
// like a solo run's (per-OST counters become "ostNNN.*").
func filterTenant(s *telemetry.Snapshot, name string) *telemetry.Snapshot {
	prefix := "tenant." + name + "."
	out := &telemetry.Snapshot{}
	for _, c := range s.Counters {
		if rest, ok := strings.CutPrefix(c.Name, prefix); ok {
			c.Name = rest
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if rest, ok := strings.CutPrefix(g.Name, prefix); ok {
			g.Name = rest
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Hists {
		if rest, ok := strings.CutPrefix(h.Name, prefix); ok {
			h.Name = rest
			out.Hists = append(out.Hists, h)
		}
	}
	return out
}

func printCounters(s *telemetry.Snapshot, top int) {
	// Per-OST counters get their own table; keep this one readable.
	var cs []telemetry.CounterSnap
	for _, c := range s.Counters {
		if ostIndex(c.Name) < 0 {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		return
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Value > cs[j].Value })
	if len(cs) > top {
		cs = cs[:top]
	}
	rows := [][]string{{"counter", "value"}}
	for _, c := range cs {
		rows = append(rows, []string{c.Name, report.F(c.Value, 2)})
	}
	fmt.Println("top counters")
	report.Table(os.Stdout, rows)
	fmt.Println()
}

func printGauges(s *telemetry.Snapshot) {
	if len(s.Gauges) == 0 {
		return
	}
	rows := [][]string{{"gauge", "final", "high-water"}}
	for _, g := range s.Gauges {
		rows = append(rows, []string{g.Name, report.F(g.Value, 2), report.F(g.Max, 2)})
	}
	fmt.Println("gauges")
	report.Table(os.Stdout, rows)
	fmt.Println()
}

func printHists(s *telemetry.Snapshot, top int) {
	if len(s.Hists) == 0 {
		return
	}
	hs := append([]telemetry.HistSnap(nil), s.Hists...)
	sort.SliceStable(hs, func(i, j int) bool { return hs[i].Count > hs[j].Count })
	if len(hs) > top {
		hs = hs[:top]
	}
	rows := [][]string{{"histogram", "n", "mean", "min", "max"}}
	for _, h := range hs {
		rows = append(rows, []string{
			h.Name, fmt.Sprint(h.Count),
			report.F(h.Mean(), 4), report.F(h.Min, 4), report.F(h.Max, 4),
		})
	}
	fmt.Println("histograms")
	report.Table(os.Stdout, rows)
	fmt.Println()
}

// ostStat collects the lustre.ostNNN.* counter family for one OST.
type ostStat struct {
	ost                     int
	streams, mb, sec, stall float64
}

// ostIndex parses the OST number out of a per-OST counter name —
// "lustre.ostNNN.<metric>", a tenant slice "tenant.X.ostNNN.<metric>",
// or the prefix-stripped "ostNNN.<metric>" a -tenant filter leaves —
// and returns -1 when the name is not per-OST.
func ostIndex(name string) int {
	rest, ok := strings.CutPrefix(name, "ost")
	if !ok {
		if i := strings.Index(name, ".ost"); i >= 0 {
			rest, ok = name[i+len(".ost"):], true
		}
	}
	if !ok {
		return -1
	}
	num, _, ok := strings.Cut(rest, ".")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return n
}

// skipOSTFamily reports counter families the per-OST table must not
// fold in: tenant per-OST slices would double-count against the
// global family (the -tenant filter is the view onto those), and the
// cascache.* cache counters are campaign-level, never per-OST traffic.
func skipOSTFamily(name string) bool {
	return strings.HasPrefix(name, "tenant.") ||
		strings.HasPrefix(name, campaign.CounterPrefix)
}

// printOSTs renders the per-OST hot-spot table: the servers carrying
// the most traffic and — the diagnostic payoff — any with injected
// stall time, sorted so stalled then busiest OSTs lead.
func printOSTs(s *telemetry.Snapshot, top int) {
	stats := map[int]*ostStat{}
	for _, c := range s.Counters {
		if skipOSTFamily(c.Name) {
			continue
		}
		i := ostIndex(c.Name)
		if i < 0 {
			continue
		}
		st, ok := stats[i]
		if !ok {
			st = &ostStat{ost: i}
			stats[i] = st
		}
		switch c.Name[strings.LastIndexByte(c.Name, '.')+1:] {
		case "streams":
			st.streams = c.Value
		case "mb":
			st.mb = c.Value
		case "seconds":
			st.sec = c.Value
		case "stall_s":
			st.stall = c.Value
		}
	}
	if len(stats) == 0 {
		return
	}
	list := make([]*ostStat, 0, len(stats))
	for _, st := range stats {
		list = append(list, st)
	}
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].stall != list[j].stall {
			return list[i].stall > list[j].stall
		}
		if list[i].sec != list[j].sec {
			return list[i].sec > list[j].sec
		}
		return list[i].ost < list[j].ost
	})
	if len(list) > top {
		list = list[:top]
	}
	rows := [][]string{{"ost", "streams", "MB", "busy_s", "stall_s", "MB/s"}}
	for _, st := range list {
		rate := 0.0
		if st.sec > 0 {
			rate = st.mb / st.sec
		}
		rows = append(rows, []string{
			fmt.Sprintf("ost%03d", st.ost),
			report.F(st.streams, 0), report.F(st.mb, 0),
			report.F(st.sec, 1), report.F(st.stall, 1), report.F(rate, 0),
		})
	}
	fmt.Println("per-OST hot spots (stalled first)")
	report.Table(os.Stdout, rows)
	fmt.Println()
}

// printSpans breaks a span file down by category: total virtual time,
// span count, and the longest single span with its name. With tenant
// set, only that tenant's spans count — its window span (cat
// "tenant") and the "NAME/"-prefixed phase and I/O spans a session
// fold emits.
func printSpans(path string, top int, tenant string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	spans, err := tracefmt.ReadSpans(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if tenant != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Cat == "tenant" && sp.Name == tenant ||
				strings.HasPrefix(sp.Name, tenant+"/") {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	type catStat struct {
		cat          string
		n            int
		total        float64
		longest      float64
		longestLabel string
	}
	cats := map[string]*catStat{}
	for _, sp := range spans {
		c, ok := cats[sp.Cat]
		if !ok {
			c = &catStat{cat: sp.Cat}
			cats[sp.Cat] = c
		}
		d := sp.End - sp.Start
		c.n++
		c.total += d
		if d > c.longest {
			c.longest = d
			c.longestLabel = sp.Name
		}
	}
	list := make([]*catStat, 0, len(cats))
	for _, c := range cats {
		list = append(list, c)
	}
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].total != list[j].total {
			return list[i].total > list[j].total
		}
		return list[i].cat < list[j].cat
	})
	if len(list) > top {
		list = list[:top]
	}
	rows := [][]string{{"category", "spans", "total_s", "longest_s", "longest span"}}
	for _, c := range list {
		rows = append(rows, []string{
			c.cat, fmt.Sprint(c.n),
			report.F(c.total, 2), report.F(c.longest, 2), c.longestLabel,
		})
	}
	fmt.Printf("span time by category (%d spans in %s)\n", len(spans), path)
	report.Table(os.Stdout, rows)
}
