package campaign

import (
	"fmt"
	"testing"

	"ensembleio/internal/cascache"
	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/wldsl"
)

// testEntries builds a duplicate-heavy grid: nUnique distinct
// scenarios, each submitted dups times, interleaved.
func testEntries(nUnique, dups int) []Entry {
	var out []Entry
	for d := 0; d < dups; d++ {
		for u := 0; u < nUnique; u++ {
			seed := int64(u + 1)
			out = append(out, Entry{
				Name:     fmt.Sprintf("gen%d-seed%d", u, seed),
				Spec:     wldsl.Generate(int64(u)),
				Platform: cluster.Franklin(),
				Seed:     seed,
			})
		}
	}
	return out
}

func TestCampaignDedupAndByteIdentity(t *testing.T) {
	entries := testEntries(3, 2) // 6 entries, 3 unique

	cold, coldStats, err := Run(entries, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Unique != 3 || coldStats.Misses != 3 || coldStats.DupHits != 3 || coldStats.Hits != 0 {
		t.Fatalf("cold stats %+v", coldStats)
	}

	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm1, s1, err := Run(entries, Options{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Misses != 3 || s1.Hits != 0 {
		t.Fatalf("first warm pass stats %+v", s1)
	}
	warm2, s2, err := Run(entries, Options{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Hits != 3 || s2.Misses != 0 || s2.DupHits != 3 {
		t.Fatalf("second warm pass stats %+v", s2)
	}
	if s2.BytesServed == 0 || s2.BytesComputed != 0 {
		t.Fatalf("second warm pass byte accounting %+v", s2)
	}

	// Byte identity across cold, computed-warm, and cache-served-warm,
	// at different worker counts.
	for i := range entries {
		if cold[i].Key != warm1[i].Key || cold[i].Key != warm2[i].Key {
			t.Fatalf("entry %d: keys differ across passes", i)
		}
		if err := cascache.DiffArtifacts(cold[i].Artifacts, warm1[i].Artifacts); err != nil {
			t.Fatalf("entry %d: cold vs computed-warm: %v", i, err)
		}
		if err := cascache.DiffArtifacts(cold[i].Artifacts, warm2[i].Artifacts); err != nil {
			t.Fatalf("entry %d: cold vs cache-served: %v", i, err)
		}
	}

	// Sources land as documented.
	if warm2[0].Source != SourceCache || warm2[3].Source != SourceDup {
		t.Fatalf("sources %q / %q, want cache / dup", warm2[0].Source, warm2[3].Source)
	}

	// Verify mode recomputes every hit and must find them identical.
	if _, _, err := Run(entries, Options{Workers: 2, Store: store, Verify: true}); err != nil {
		t.Fatalf("verify pass: %v", err)
	}
}

func TestCampaignWithFaults(t *testing.T) {
	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Name: "slow7", Faults: []faults.Fault{&faults.SlowOST{OST: 0, Factor: 0.5}}}
	mk := func() []Entry {
		return []Entry{
			{Name: "plain", Spec: wldsl.Generate(5), Platform: cluster.Franklin(), Seed: 3},
			{Name: "faulty", Spec: wldsl.Generate(5), Platform: cluster.Franklin(), Faults: sc, Seed: 3},
		}
	}
	first, s1, err := Run(mk(), Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Unique != 2 {
		t.Fatalf("fault scenario did not split the key: %+v", s1)
	}
	second, s2, err := Run(mk(), Options{Store: store, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Hits != 2 {
		t.Fatalf("warm faulted campaign stats %+v", s2)
	}
	for i := range first {
		if err := cascache.DiffArtifacts(first[i].Artifacts, second[i].Artifacts); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := Stats{Scenarios: 6, Unique: 3, Hits: 2, Misses: 1, DupHits: 3, BytesServed: 100, BytesComputed: 50}
	snap := s.Snapshot()
	if got := snap.Counter("cascache.hits"); got != 2 {
		t.Fatalf("cascache.hits = %v", got)
	}
	if got := snap.Counter("cascache.bytes_served"); got != 100 {
		t.Fatalf("cascache.bytes_served = %v", got)
	}
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
}
