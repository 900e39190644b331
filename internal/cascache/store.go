package cascache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Artifact is one named byte blob of a cached run's artifact set
// (trace.bin, trace.jsonl, profile.json, telemetry.json, spans.jsonl,
// chrome.json). Served artifacts are shared, read-only slices: callers
// write them out or compare them, never mutate them.
type Artifact struct {
	Name string
	Data []byte
}

// Meta is the human-facing summary stored alongside an entry, enough
// for a CLI to print its usual per-run line without decoding any
// artifact. It never participates in the key.
type Meta struct {
	Workload   string  `json:"workload,omitempty"`
	Seed       int64   `json:"seed"`
	Tasks      int     `json:"tasks,omitempty"`
	WallSec    float64 `json:"wall_sec,omitempty"`
	TotalBytes int64   `json:"total_bytes,omitempty"`
}

// Entry is one served cache entry.
type Entry struct {
	Key       Key
	Meta      Meta
	Artifacts []Artifact
}

// Stats is a snapshot of the store's counters. Hits counts every
// served entry (MRUHits of them straight from memory); BytesServed is
// the artifact bytes of served entries, BytesWritten the artifact
// bytes of published ones. Corrupt counts entries that failed the
// digest re-check on read and were evicted instead of served.
type Stats struct {
	Hits, MRUHits, Misses, Puts, Corrupt uint64
	BytesServed, BytesWritten            uint64
}

// Store is an on-disk content-addressed artifact store plus an
// in-process MRU layer. Safe for concurrent use: campaign workers
// publish and probe from the runpool. Which worker wins a racy publish
// is scheduler-dependent, but harmless by construction — entries are
// content-addressed, so every candidate body for a key is
// byte-identical.
type Store struct {
	root string // <dir>/v<SchemaEpoch>

	mu  sync.Mutex
	mru mruCache

	hits, mruHits, misses, puts, corrupt atomic.Uint64
	bytesServed, bytesWritten            atomic.Uint64
}

// DefaultMRUCap bounds the in-process layer. Campaign grids repeat a
// handful of hot scenarios; a small cache captures those while keeping
// a miss's probe cost at a few 32-byte comparisons.
const DefaultMRUCap = 16

// Open prepares the store rooted at dir, creating the epoch directory
// if needed. Entries of other epochs are invisible by construction.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cascache: empty cache directory")
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaEpoch))
	if err := os.MkdirAll(filepath.Join(root, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("cascache: %w", err)
	}
	return &Store{root: root, mru: mruCache{cap: DefaultMRUCap}}, nil
}

// Dir returns the store's epoch root directory.
func (s *Store) Dir() string { return s.root }

// SetMRUCap resizes the in-process layer (0 disables it). Not for the
// hot path; call it right after Open.
func (s *Store) SetMRUCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mru.cap = n
	if n < len(s.mru.entries) {
		s.mru.entries = s.mru.entries[:n]
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		MRUHits:      s.mruHits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Corrupt:      s.corrupt.Load(),
		BytesServed:  s.bytesServed.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

func (s *Store) entryDir(k Key) string {
	h := k.Hex()
	return filepath.Join(s.root, h[:2], h)
}

// manifest is the per-entry integrity record: every artifact's size
// and SHA-256, written last inside the temp dir so a published entry
// always carries its own digests.
type manifest struct {
	Epoch     int           `json:"epoch"`
	Key       string        `json:"key"`
	Meta      Meta          `json:"meta"`
	Artifacts []manifestArt `json:"artifacts"`
}

type manifestArt struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

const manifestName = "manifest.json"

// validArtifactName keeps artifact names safe as file names inside the
// entry directory: no separators, no leading dot, bounded charset.
func validArtifactName(name string) bool {
	if name == "" || name == manifestName || name[0] == '.' || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Get probes the MRU layer, then the disk. A disk hit re-checks every
// artifact's size and SHA-256 against the entry's manifest; any
// mismatch means the blob was corrupted after publication, so the
// entry is evicted from disk and reported as a miss — a poisoned store
// can cost recomputation, never wrong bytes.
func (s *Store) Get(k Key) (Entry, bool) {
	s.mu.Lock()
	if e := s.mru.get(k); e != nil {
		s.mu.Unlock()
		s.hits.Add(1)
		s.mruHits.Add(1)
		s.bytesServed.Add(e.bytes)
		return Entry{Key: k, Meta: e.meta, Artifacts: e.artifacts}, true
	}
	s.mu.Unlock()

	ent, n, err := s.readEntry(k)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Present but unreadable or failing its digests: evict so a
			// later Put can heal the slot.
			s.corrupt.Add(1)
			os.RemoveAll(s.entryDir(k))
		}
		s.misses.Add(1)
		return Entry{}, false
	}
	s.mu.Lock()
	s.mru.put(k, ent.Meta, ent.Artifacts, n)
	s.mu.Unlock()
	s.hits.Add(1)
	s.bytesServed.Add(n)
	return ent, true
}

// readEntry loads and verifies one on-disk entry. fs.ErrNotExist means
// a clean miss; any other error means a damaged entry.
func (s *Store) readEntry(k Key) (Entry, uint64, error) {
	dir := s.entryDir(k)
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Entry{}, 0, err
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return Entry{}, 0, fmt.Errorf("cascache: %s: manifest: %w", k.Short(), err)
	}
	if m.Epoch != SchemaEpoch || m.Key != k.Hex() {
		return Entry{}, 0, fmt.Errorf("cascache: %s: manifest identity mismatch", k.Short())
	}
	ent := Entry{Key: k, Meta: m.Meta, Artifacts: make([]Artifact, 0, len(m.Artifacts))}
	var total uint64
	for _, a := range m.Artifacts {
		if !validArtifactName(a.Name) {
			return Entry{}, 0, fmt.Errorf("cascache: %s: illegal artifact name %q", k.Short(), a.Name)
		}
		data, err := os.ReadFile(filepath.Join(dir, a.Name))
		if err != nil {
			return Entry{}, 0, fmt.Errorf("cascache: %s: %s: %w", k.Short(), a.Name, err)
		}
		if int64(len(data)) != a.Bytes {
			return Entry{}, 0, fmt.Errorf("cascache: %s: %s: %d bytes, manifest says %d", k.Short(), a.Name, len(data), a.Bytes)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != a.SHA256 {
			return Entry{}, 0, fmt.Errorf("cascache: %s: %s: digest mismatch", k.Short(), a.Name)
		}
		ent.Artifacts = append(ent.Artifacts, Artifact{Name: a.Name, Data: data})
		total += uint64(len(data))
	}
	return ent, total, nil
}

// Put publishes an artifact set under its key: artifacts and manifest
// are written into a fresh temp directory, fsync-free, then the whole
// directory is renamed into place — readers observe either nothing or
// the complete entry. If another writer published the key first the
// candidate is discarded; content addressing makes the two bodies
// byte-identical, so first-wins is not a race on content.
func (s *Store) Put(k Key, meta Meta, artifacts []Artifact) error {
	if len(artifacts) == 0 {
		return errors.New("cascache: refusing to publish an empty artifact set")
	}
	m := manifest{Epoch: SchemaEpoch, Key: k.Hex(), Meta: meta}
	var total uint64
	for _, a := range artifacts {
		if !validArtifactName(a.Name) {
			return fmt.Errorf("cascache: illegal artifact name %q", a.Name)
		}
		sum := sha256.Sum256(a.Data)
		m.Artifacts = append(m.Artifacts, manifestArt{
			Name: a.Name, Bytes: int64(len(a.Data)), SHA256: hex.EncodeToString(sum[:]),
		})
		total += uint64(len(a.Data))
	}

	tmp, err := os.MkdirTemp(filepath.Join(s.root, "tmp"), k.Short()+"-")
	if err != nil {
		return fmt.Errorf("cascache: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	for _, a := range artifacts {
		if err := os.WriteFile(filepath.Join(tmp, a.Name), a.Data, 0o644); err != nil {
			return fmt.Errorf("cascache: %w", err)
		}
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cascache: manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), append(mb, '\n'), 0o644); err != nil {
		return fmt.Errorf("cascache: %w", err)
	}

	dst := s.entryDir(k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cascache: %w", err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		if _, statErr := os.Stat(filepath.Join(dst, manifestName)); statErr == nil {
			// Lost the publish race; the winner's bytes are ours.
			return nil
		}
		return fmt.Errorf("cascache: publishing %s: %w", k.Short(), err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(total)
	if err := s.appendIndex(k, meta, total, len(artifacts)); err != nil {
		return err
	}
	s.mu.Lock()
	s.mru.put(k, meta, artifacts, total)
	s.mu.Unlock()
	return nil
}

// IndexEntry is one line of the store's append-only index file — an
// advisory catalog for browsing and campaign planning. Reads never
// trust it: Get always verifies the entry's own manifest.
type IndexEntry struct {
	Key       string `json:"key"`
	Workload  string `json:"workload,omitempty"`
	Seed      int64  `json:"seed"`
	Bytes     uint64 `json:"bytes"`
	Artifacts int    `json:"artifacts"`
}

const indexName = "index.jsonl"

// appendIndex appends one catalog line. A single O_APPEND write keeps
// concurrent publishers from interleaving partial lines.
func (s *Store) appendIndex(k Key, meta Meta, total uint64, n int) error {
	line, err := json.Marshal(IndexEntry{
		Key: k.Hex(), Workload: meta.Workload, Seed: meta.Seed, Bytes: total, Artifacts: n,
	})
	if err != nil {
		return fmt.Errorf("cascache: index: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.root, indexName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cascache: index: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("cascache: index: %w", werr)
	}
	return nil
}

// Index reads the catalog. Malformed lines (a crash mid-append) are
// skipped, not fatal — the index is an accelerator, the manifests are
// the truth.
func (s *Store) Index() ([]IndexEntry, error) {
	data, err := os.ReadFile(filepath.Join(s.root, indexName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cascache: index: %w", err)
	}
	var out []IndexEntry
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e IndexEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// RebuildIndex rewrites the catalog from the entry manifests, in
// lexical key order (deterministic), and returns the entry count. Use
// it after manual pruning or a crash left the advisory index behind
// the truth.
func (s *Store) RebuildIndex() (int, error) {
	var entries []IndexEntry
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return 0, fmt.Errorf("cascache: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		dirs, err := os.ReadDir(filepath.Join(s.root, shard.Name()))
		if err != nil {
			return 0, fmt.Errorf("cascache: %w", err)
		}
		for _, d := range dirs {
			mb, err := os.ReadFile(filepath.Join(s.root, shard.Name(), d.Name(), manifestName))
			if err != nil {
				continue
			}
			var m manifest
			if err := json.Unmarshal(mb, &m); err != nil || m.Epoch != SchemaEpoch {
				continue
			}
			var total uint64
			for _, a := range m.Artifacts {
				total += uint64(a.Bytes)
			}
			entries = append(entries, IndexEntry{
				Key: m.Key, Workload: m.Meta.Workload, Seed: m.Meta.Seed,
				Bytes: total, Artifacts: len(m.Artifacts),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return 0, fmt.Errorf("cascache: index: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := filepath.Join(s.root, indexName+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return 0, fmt.Errorf("cascache: index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.root, indexName)); err != nil {
		return 0, fmt.Errorf("cascache: index: %w", err)
	}
	return len(entries), nil
}

// DiffArtifacts compares two artifact sets byte for byte and reports
// the first divergence — the paranoid -cache-verify check that a
// served entry equals a fresh recomputation.
func DiffArtifacts(served, fresh []Artifact) error {
	if len(served) != len(fresh) {
		return fmt.Errorf("cascache: artifact sets differ: %d served vs %d fresh", len(served), len(fresh))
	}
	for i := range served {
		a, b := served[i], fresh[i]
		if a.Name != b.Name {
			return fmt.Errorf("cascache: artifact %d name %q served vs %q fresh", i, a.Name, b.Name)
		}
		if !bytes.Equal(a.Data, b.Data) {
			j := 0
			for j < len(a.Data) && j < len(b.Data) && a.Data[j] == b.Data[j] {
				j++
			}
			return fmt.Errorf("cascache: %s: served %d bytes vs fresh %d, first divergence at byte %d",
				a.Name, len(a.Data), len(b.Data), j)
		}
	}
	return nil
}
