// Package cli is the runner layer the command-line tools share: the common
// flags (-timeout, -parallel, -out, -csv), count-flag bounds, comma-list and
// backend-list flags, a table writer, and one exit-code convention — 2 for
// bad flags, 1 for a failed run. Every flag is checked before the run
// prints anything.
//
// A command registers its flags on a Command and hands its body to Run:
//
//	func run(args []string, stdout, stderr io.Writer) int {
//		c := cli.New("serve", stdout, stderr)
//		gpus := c.Int("gpus", 4, "GPUs in the serving machine")
//		c.Positive("gpus")
//		return c.Run(args, func(ctx context.Context) error { ... })
//	}
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pgasemb/internal/retrieval"
)

// Exit codes.
const (
	ExitFail  = 1 // the run failed
	ExitUsage = 2 // a flag was bad; nothing ran
)

// Command is one tool's flag set plus the shared runner state. Commands
// register their own flags through the embedded FlagSet.
type Command struct {
	*flag.FlagSet
	stdout io.Writer
	stderr io.Writer

	checks   []func() error
	timeout  *time.Duration
	parallel *int
	out      *string
	csv      *bool
	wrote    bool // WriteFile wrote at least one artifact
}

// New returns an empty command named name writing to stdout and stderr.
func New(name string, stdout, stderr io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // Run reports parse errors itself, prefixed
	return &Command{FlagSet: fs, stdout: stdout, stderr: stderr}
}

// Timeout registers -timeout; Run bounds the run's context by it.
func (c *Command) Timeout() {
	c.timeout = c.Duration("timeout", 0, "abort after this host wall-clock duration (0 = no limit)")
}

// Parallel registers -parallel, defaulting to GOMAXPROCS; 0 also means
// GOMAXPROCS. Read it through Workers.
func (c *Command) Parallel() {
	c.parallel = c.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs (0 = GOMAXPROCS); results are identical for every value")
	c.NonNegative("parallel")
}

// Workers is the -parallel value with 0 resolved to GOMAXPROCS.
func (c *Command) Workers() int {
	if c.parallel == nil || *c.parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return *c.parallel
}

// Out registers -out, the directory Table and WriteFile write into ("" =
// stdout only).
func (c *Command) Out(def string) *string {
	c.out = c.String("out", def, "output directory for the .txt/.csv artifacts (empty = stdout only)")
	return c.out
}

// CSV registers -csv, which makes Table print CSV instead of aligned text.
func (c *Command) CSV() *bool {
	c.csv = c.Bool("csv", false, "print CSV instead of aligned tables")
	return c.csv
}

// Positive marks already-registered numeric flags (int, float64 or
// duration) that must be > 0.
func (c *Command) Positive(names ...string) {
	c.bound(names, "positive", func(v float64) bool { return v > 0 })
}

// NonNegative marks already-registered numeric flags whose 0 is a
// documented default but whose negative values are rejected.
func (c *Command) NonNegative(names ...string) {
	c.bound(names, "non-negative", func(v float64) bool { return v >= 0 })
}

func (c *Command) bound(names []string, want string, ok func(float64) bool) {
	for _, name := range names {
		f := c.Lookup(name)
		if f == nil {
			panic("cli: bound on unregistered flag -" + name)
		}
		c.checks = append(c.checks, func() error {
			var v float64
			switch x := f.Value.(flag.Getter).Get().(type) {
			case int:
				v = float64(x)
			case float64:
				v = x
			case time.Duration:
				v = float64(x)
			default:
				panic(fmt.Sprintf("cli: -%s is not numeric", name))
			}
			if !ok(v) {
				return fmt.Errorf("-%s must be %s", name, want)
			}
			return nil
		})
	}
}

// Check adds a flag validation that Run performs after parsing; a non-nil
// error is a usage error (exit 2).
func (c *Command) Check(fn func() error) { c.checks = append(c.checks, fn) }

// list is a comma-separated flag value: every non-blank item goes through
// parse, and a list with no items is an error.
type list[T any] struct {
	vals  *[]T
	parse func(string) (T, error)
}

func (l list[T]) String() string {
	if l.vals == nil {
		return ""
	}
	items := make([]string, len(*l.vals))
	for i, v := range *l.vals {
		items[i] = fmt.Sprint(v)
	}
	return strings.Join(items, ",")
}

func (l list[T]) Set(s string) error {
	var out []T
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := l.parse(item)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return errors.New("empty list")
	}
	*l.vals = out
	return nil
}

func listVar[T any](c *Command, name, def, usage string, parse func(string) (T, error)) *[]T {
	vals := new([]T)
	l := list[T]{vals: vals, parse: parse}
	if err := l.Set(def); err != nil {
		panic(fmt.Sprintf("cli: default of -%s: %v", name, err))
	}
	c.Var(l, name, usage)
	return vals
}

// Floats registers a comma-separated float list flag.
func (c *Command) Floats(name, def, usage string) *[]float64 {
	return listVar(c, name, def, usage, func(s string) (float64, error) {
		return strconv.ParseFloat(s, 64)
	})
}

// Ints registers a comma-separated int list flag.
func (c *Command) Ints(name, def, usage string) *[]int {
	return listVar(c, name, def, usage, strconv.Atoi)
}

// Names registers a comma-separated list flag whose items must be among
// known.
func (c *Command) Names(name, def, usage string, known []string) *[]string {
	usage += " (known: " + strings.Join(known, ", ") + ")"
	return listVar(c, name, def, usage, func(s string) (string, error) {
		for _, k := range known {
			if s == k {
				return s, nil
			}
		}
		return "", fmt.Errorf("unknown name %q (known: %s)", s, strings.Join(known, ", "))
	})
}

// Backends registers -backend, a comma-separated list of registered
// retrieval backend names.
func (c *Command) Backends(def string) *[]string {
	return c.Names("backend", def, "comma-separated registered backends", retrieval.RegisteredBackends())
}

// Backend registers -backend for commands that take exactly one registered
// backend (the accelerated column; the baseline column always runs).
func (c *Command) Backend(def string) *string {
	names := c.Names("backend", def, "registered backend for the accelerated column (baseline always runs)",
		retrieval.RegisteredBackends())
	name := new(string)
	c.Check(func() error {
		if len(*names) != 1 {
			return fmt.Errorf("-backend takes exactly one backend name, got %d", len(*names))
		}
		*name = (*names)[0]
		return nil
	})
	return name
}

// Precision registers -precision, the wire transport format for embedding
// rows.
func (c *Command) Precision(usage string) *retrieval.Precision {
	p := new(retrieval.Precision)
	c.Func("precision", usage+" (default fp32)", func(s string) (err error) {
		*p, err = retrieval.ParsePrecision(s)
		return err
	})
	return p
}

// Run parses args, performs every flag check, and runs body under the
// -timeout context. It returns the process exit code: 0 on success (or
// -h), ExitUsage for a bad flag, ExitFail for a failed run. Errors go to
// stderr prefixed with the command name; a successful run that wrote an
// artifact ends its stdout with the -out directory.
func (c *Command) Run(args []string, body func(ctx context.Context) error) int {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			c.usage()
			return 0
		}
		fmt.Fprintf(c.stderr, "%s: %v\n", c.Name(), err)
		c.usage()
		return ExitUsage
	}
	if c.NArg() > 0 {
		fmt.Fprintf(c.stderr, "%s: unexpected arguments %q\n", c.Name(), c.Args())
		return ExitUsage
	}
	for _, check := range c.checks {
		if err := check(); err != nil {
			fmt.Fprintf(c.stderr, "%s: %v\n", c.Name(), err)
			return ExitUsage
		}
	}
	ctx := context.Background()
	if c.timeout != nil && *c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *c.timeout)
		defer cancel()
	}
	if err := body(ctx); err != nil {
		fmt.Fprintf(c.stderr, "%s: %v\n", c.Name(), err)
		return ExitFail
	}
	if c.wrote {
		fmt.Fprintf(c.stdout, "artifacts written to %s/\n", *c.out)
	}
	return 0
}

func (c *Command) usage() {
	fmt.Fprintf(c.stderr, "usage of %s:\n", c.Name())
	c.SetOutput(c.stderr)
	c.PrintDefaults()
	c.SetOutput(io.Discard)
}

// TableRenderer is a rendered experiment artifact.
type TableRenderer interface {
	Render() string
	CSV() string
}

// Table prints t on the command's stdout — CSV under -csv, aligned text otherwise — and,
// when -out is set, writes it to <out>/<name>.txt and <out>/<name>.csv.
func (c *Command) Table(name string, t TableRenderer) error {
	if c.csv != nil && *c.csv {
		fmt.Fprint(c.stdout, t.CSV())
	} else {
		fmt.Fprintln(c.stdout, t.Render())
	}
	if err := c.WriteFile(name+".txt", []byte(t.Render())); err != nil {
		return err
	}
	return c.WriteFile(name+".csv", []byte(t.CSV()))
}

// WriteFile writes data to <out>/<name>, creating the directory; it does
// nothing when -out is unset or empty.
func (c *Command) WriteFile(name string, data []byte) error {
	if c.out == nil || *c.out == "" {
		return nil
	}
	if err := os.MkdirAll(*c.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*c.out, name), data, 0o644); err != nil {
		return err
	}
	c.wrote = true
	return nil
}
