package expserve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DiskMemo is a durable, content-addressed cell store implementing
// exp.CellMemo. Each cell key owns one directory under the memo root:
//
//	<root>/<key>/result.json     the sim.Result, canonical JSON
//	<root>/<key>/manifest.json   CellMeta + SHA-256 of every payload file
//	<root>/<key>/<artifact>      optional payloads (DPBF v2 trace, DPCK
//	                             checkpoint) listed in the manifest
//
// Writes are crash-safe: the entry is assembled in a hidden temp directory
// and renamed into place, with the manifest written last inside it, so a
// crash mid-Put leaves nothing at the final path. Reads are paranoid: a
// missing, unparsable, mismatched-key or hash-mismatched entry is a miss —
// Get removes it and returns ok=false so the cell is recomputed rather
// than trusted. Go's encoding/json round-trips float64 exactly (shortest
// representation), so a result served from disk is bit-identical to the
// one computed. Every lookup and eviction is counted (Stats), so a memo
// that silently drops entries shows in the counts.
type DiskMemo struct {
	dir                     string
	hits, misses, evictions atomic.Int64
}

// MemoStats counts a DiskMemo's Get outcomes since it was opened, and the
// defective entries it evicted (each eviction is also a miss).
type MemoStats struct {
	Hits, Misses, Evictions int64
}

// manifestVersion guards the on-disk layout; entries written by a future
// incompatible layout read as misses, never as garbage.
const manifestVersion = 1

// manifest is the per-entry commit record.
type manifest struct {
	Version   int           `json:"version"`
	Key       string        `json:"key"`
	Meta      exp.CellMeta  `json:"meta"`
	ResultSHA string        `json:"result_sha256"`
	Artifacts []ArtifactRef `json:"artifacts,omitempty"`
}

// Artifact is an optional payload stored alongside a result.
type Artifact struct {
	Name string
	Data []byte
}

// ArtifactRef is the manifest's record of one artifact.
type ArtifactRef struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// OpenDiskMemo opens (creating if needed) a memo rooted at dir.
func OpenDiskMemo(dir string) (*DiskMemo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("expserve: opening memo: %w", err)
	}
	return &DiskMemo{dir: dir}, nil
}

// Stats snapshots the memo's counters.
func (m *DiskMemo) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Evictions: m.evictions.Load()}
}

// RegisterProbes publishes the counters on reg as expserve.memo_hits,
// expserve.memo_misses and expserve.memo_evictions.
func (m *DiskMemo) RegisterProbes(reg *obs.Registry) {
	reg.RegisterProbe("expserve.memo_hits", func() float64 { return float64(m.hits.Load()) })
	reg.RegisterProbe("expserve.memo_misses", func() float64 { return float64(m.misses.Load()) })
	reg.RegisterProbe("expserve.memo_evictions", func() float64 { return float64(m.evictions.Load()) })
}

// Dir returns the memo root.
func (m *DiskMemo) Dir() string { return m.dir }

func (m *DiskMemo) entryDir(key string) string { return filepath.Join(m.dir, key) }

// validKey rejects keys that could escape the memo root or collide with
// temp directories; exp.CellKey always produces 64 hex characters.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

// Get implements exp.CellMemo. Any defect in the entry — absent files,
// bad JSON, a manifest naming a different key, or a result whose hash
// disagrees with the manifest — deletes the entry and reports a miss.
func (m *DiskMemo) Get(key string) (sim.Result, bool, error) {
	if !validKey(key) {
		return sim.Result{}, false, fmt.Errorf("expserve: malformed cell key %q", key)
	}
	res, ok := m.load(key)
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return res, ok, nil
}

// load reads a valid key's entry, evicting it if it is defective.
func (m *DiskMemo) load(key string) (sim.Result, bool) {
	dir := m.entryDir(key)
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		// Absent is a plain miss; an I/O error is a miss too but leaves
		// the entry alone — only proven-defective content is evicted.
		return sim.Result{}, false
	}
	var man manifest
	if err := json.Unmarshal(mb, &man); err != nil || man.Version != manifestVersion || man.Key != key {
		m.evict(dir)
		return sim.Result{}, false
	}
	rb, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if errors.Is(err, os.ErrNotExist) {
		m.evict(dir) // manifest without payload: a torn entry
		return sim.Result{}, false
	}
	if err != nil {
		return sim.Result{}, false
	}
	if sha256hex(rb) != man.ResultSHA {
		m.evict(dir)
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(rb, &res); err != nil {
		m.evict(dir)
		return sim.Result{}, false
	}
	return res, true
}

// Meta returns the stored metadata for a key, for listings and debugging.
func (m *DiskMemo) Meta(key string) (exp.CellMeta, bool) {
	if !validKey(key) {
		return exp.CellMeta{}, false
	}
	mb, err := os.ReadFile(filepath.Join(m.entryDir(key), "manifest.json"))
	if err != nil {
		return exp.CellMeta{}, false
	}
	var man manifest
	if err := json.Unmarshal(mb, &man); err != nil || man.Key != key {
		return exp.CellMeta{}, false
	}
	return man.Meta, true
}

// Artifact reads one named artifact of an entry, hash-verified against the
// manifest; ok=false for anything defective.
func (m *DiskMemo) Artifact(key, name string) ([]byte, bool) {
	if !validKey(key) || name != filepath.Base(name) {
		return nil, false
	}
	dir := m.entryDir(key)
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, false
	}
	var man manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, false
	}
	for _, ref := range man.Artifacts {
		if ref.Name != name {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || sha256hex(data) != ref.SHA256 {
			return nil, false
		}
		return data, true
	}
	return nil, false
}

// Put implements exp.CellMemo (no artifacts).
func (m *DiskMemo) Put(key string, meta exp.CellMeta, res sim.Result) error {
	return m.PutWithArtifacts(key, meta, res, nil)
}

// PutWithArtifacts writes a complete entry atomically: payloads and
// manifest land in a temp directory first, then one rename commits the
// entry. Losing a same-key race (or finding a previous complete entry) is
// success — cells are deterministic, so whichever writer won stored the
// same result.
func (m *DiskMemo) PutWithArtifacts(key string, meta exp.CellMeta, res sim.Result, arts []Artifact) error {
	if !validKey(key) {
		return fmt.Errorf("expserve: malformed cell key %q", key)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("expserve: encoding result for %s/%s: %w", meta.Workload, meta.Setup, err)
	}
	man := manifest{Version: manifestVersion, Key: key, Meta: meta, ResultSHA: sha256hex(rb)}

	tmp, err := os.MkdirTemp(m.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("expserve: memo put: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	writeFile := func(name string, data []byte) error {
		f, err := os.OpenFile(filepath.Join(tmp, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(data)
		if serr := f.Sync(); werr == nil {
			werr = serr
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}
	for _, a := range arts {
		if a.Name != filepath.Base(a.Name) || a.Name == "result.json" || a.Name == "manifest.json" {
			return fmt.Errorf("expserve: invalid artifact name %q", a.Name)
		}
		if err := writeFile(a.Name, a.Data); err != nil {
			return fmt.Errorf("expserve: memo put: %w", err)
		}
		man.Artifacts = append(man.Artifacts, ArtifactRef{Name: a.Name, SHA256: sha256hex(a.Data), Size: int64(len(a.Data))})
	}
	if err := writeFile("result.json", rb); err != nil {
		return fmt.Errorf("expserve: memo put: %w", err)
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("expserve: memo put: %w", err)
	}
	// The manifest commits the entry's contents; write it last so a torn
	// temp directory never carries one.
	if err := writeFile("manifest.json", mb); err != nil {
		return fmt.Errorf("expserve: memo put: %w", err)
	}
	if err := os.Rename(tmp, m.entryDir(key)); err != nil {
		if _, ok := m.load(key); ok {
			return nil // lost the race to an equivalent entry
		}
		return fmt.Errorf("expserve: memo put: %w", err)
	}
	return nil
}

// Len counts complete-looking entries (directories named by a cell key).
func (m *DiskMemo) Len() int {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() && validKey(e.Name()) {
			n++
		}
	}
	return n
}

// evict removes a defective entry so the recomputed cell can Put cleanly.
func (m *DiskMemo) evict(dir string) {
	m.evictions.Add(1)
	_ = os.RemoveAll(dir)
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
