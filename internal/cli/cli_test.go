package cli

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

type table struct{}

func (table) Render() string { return "text" }
func (table) CSV() string    { return "csv\n" }

// The -out directory is reported once, after the run, and only when an
// artifact was actually written.
func TestArtifactsLine(t *testing.T) {
	for _, c := range []struct {
		out   string
		lines int
	}{{"", 0}, {t.TempDir(), 1}} {
		var stdout, stderr bytes.Buffer
		cmd := New("probe", &stdout, &stderr)
		cmd.Out("results")
		code := cmd.Run([]string{"-out", c.out}, func(context.Context) error {
			if err := cmd.Table("a", table{}); err != nil {
				return err
			}
			return cmd.Table("b", table{})
		})
		if code != 0 {
			t.Fatalf("-out %q: exit %d: %s", c.out, code, stderr.String())
		}
		want := "artifacts written to " + c.out + "/\n"
		if got := strings.Count(stdout.String(), "artifacts written"); got != c.lines {
			t.Errorf("-out %q: %d artifact lines, want %d:\n%s", c.out, got, c.lines, stdout.String())
		} else if c.lines > 0 && !strings.HasSuffix(stdout.String(), want) {
			t.Errorf("-out %q: stdout does not end with %q:\n%s", c.out, want, stdout.String())
		}
	}
}
