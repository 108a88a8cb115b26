package clitest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryCommandCovered keeps the table and cmd/ in step: every command
// has cases, and every command's tests run them.
func TestEveryCommandCovered(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("..", "..", "..", "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		seen[name] = true
		if _, ok := BadFlags[name]; !ok {
			t.Errorf("cmd/%s has no BadFlags cases", name)
		}
		src, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", name, "main_test.go"))
		if err != nil || !strings.Contains(string(src), `clitest.Check(t, "`+name+`", run)`) {
			t.Errorf("cmd/%s/main_test.go does not run clitest.Check", name)
		}
	}
	for name := range BadFlags {
		if !seen[name] {
			t.Errorf("BadFlags names %q, which is not a command under cmd/", name)
		}
	}
}
