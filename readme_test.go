package garnet_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeTableNamesEveryPackage: the README's architecture table names
// each package under internal/ — every directory holding a non-test Go
// file — and nothing else, so a package added, folded or deleted cannot
// leave the map a newcomer reads first out of date.
func TestReadmeTableNamesEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n| Kind | Package | Role |\n")
	if !ok {
		t.Fatal("README.md has no architecture table (| Kind | Package | Role |)")
	}
	named := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		for _, m := range regexp.MustCompile("`(internal/[a-z/]+)`").FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
		}
	}

	var dirs []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if !named[dir] {
			t.Errorf("README's architecture table does not name %s", dir)
		}
		delete(named, dir)
	}
	for name := range named {
		t.Errorf("README's architecture table names %s, which is not a package", name)
	}
	t.Logf("%d internal/ packages, all named", len(dirs))
}
