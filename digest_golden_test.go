package ensembleio

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// CheckArtifactDigest pins an artifact stream to the golden digest in
// testdata/golden/determinism/<name>.json: its length and SHA-256 must
// match byte for byte. Under -update it rewrites the file instead. It
// is exported for the external determinism suite (package
// ensembleio_test), which shares this package's -update flag.
//
// Regenerate with:
//
//	go test -run 'TestAnalyticArtifactsGolden|TestMemoizedRuns|TestGeneratedSpecs|TestTenancy' -update .
func CheckArtifactDigest(t *testing.T, name string, b []byte) {
	t.Helper()
	if len(b) == 0 {
		t.Fatalf("%s: no artifact bytes; the golden pin would be vacuous", name)
	}
	sum := sha256.Sum256(b)
	got := goldenDigest{Bytes: len(b), SHA256: hex.EncodeToString(sum[:])}
	path := filepath.Join("testdata", "golden", "determinism", name+".json")
	if *updateGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, got.Bytes)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file %s — rerun with -update to create it (%v)", path, err)
	}
	var want goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if got != want {
		t.Errorf("%s: artifacts drifted from the golden digest: got %d bytes sha256 %s, golden %d bytes sha256 %s",
			name, got.Bytes, got.SHA256, want.Bytes, want.SHA256)
	}
}
