package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeModule lays out a throwaway module: files maps slash paths to
// contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const lintModule = `module example.com/m

go 1.22
`

const lintMain = `package main

import (
	"fmt"

	"example.com/m/internal/a"
)

func main() { fmt.Println(a.Used(), a.T{}) }
`

// lintPkg declares a referenced function, a Stringer (exempt: reached
// through fmt.Stringer), and Planted, which nothing references.
const lintPkg = `package a

type T struct{}

func (T) String() string { return "t" }

func Used() int { return 1 }

func Planted() {}
`

func TestUnusedExportsFlagsPlantedExport(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":          lintModule,
		"main.go":         lintMain,
		"internal/a/a.go": lintPkg,
	})
	got, err := unusedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a/a.go:9:6: exported a.Planted is never referenced"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unusedExports = %q, want %q", got, want)
	}
}

func TestUnusedExportsCountsTestReferences(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":               lintModule,
		"main.go":              lintMain,
		"internal/a/a.go":      lintPkg,
		"internal/a/a_test.go": "package a_test\n\nimport \"example.com/m/internal/a\"\n\nvar _ = a.Planted\n",
	})
	got, err := unusedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unusedExports = %q, want none", got)
	}
}
