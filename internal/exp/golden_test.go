package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick/*.txt from the current tables")

// TestQuickTablesMatchGolden pins every experiment's quick-scale table
// byte for byte. Each testdata/quick/<ID>.txt holds exactly what
// iiotbench prints for that experiment, minus the wall-time line, so a
// refactor that perturbs any RNG draw, event order or formatting fails
// here. Regenerate with `go test ./internal/exp -run TestQuickTablesMatchGolden -update`
// only when a table is meant to change.
func TestQuickTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			got := r.Run(Quick).String()
			path := filepath.Join("testdata", "quick", r.ID+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s table differs from %s:\n--- want ---\n%s\n--- got ---\n%s", r.ID, path, want, got)
			}
		})
	}
}
