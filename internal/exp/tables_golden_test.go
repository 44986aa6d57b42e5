package exp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tablesGoldenPath holds one "sha256  artifact" line per printed table.
var tablesGoldenPath = filepath.Join("testdata", "tables.sha256")

// TestExperimentTablesGolden pins the printed bytes of every table the
// package's quickRunner grid feeds: each Experiments() entry's Format(),
// the §VI-D storage report, and the extended Table IV over the golden arena
// (goldenArena), in that order. The Result goldens pin the numbers; this
// pins what the experiment layer makes of them (row order, columns,
// summaries, footers). Regenerate with
//
//	go test ./internal/exp -run TestExperimentTablesGolden -update
func TestExperimentTablesGolden(t *testing.T) {
	quickGrid(t)
	var lines []string
	digest := func(id, text string) {
		lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256([]byte(text)), id))
	}
	series := func(e Experiment) {
		s, err := e.Run(quickRunner)
		if err != nil {
			t.Fatal(err)
		}
		digest(s.ID, s.Format())
	}
	for _, e := range Experiments() {
		series(e)
	}
	storage, err := StorageOverheads()
	if err != nil {
		t.Fatal(err)
	}
	digest("Section VI-D", storage.Format())
	series(goldenArena(t))

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(tablesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", tablesGoldenPath)
		return
	}
	raw, err := os.ReadFile(tablesGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (run with -update to create it): %v", tablesGoldenPath, err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d table digests, %s has %d", len(lines), tablesGoldenPath, len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("table digest changed:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}
