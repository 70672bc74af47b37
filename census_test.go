package hades_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hades/internal/scenario"
)

// unreachedFile holds a verdict on every function under internal/ and
// cmd/ that no run executes.
const unreachedFile = "testdata/unreached.txt"

// TestOnlyCodeARunReaches is the run-coverage census. It builds cover
// binaries of hades, of every example and of the bench driver, runs every
// run the tree has into one GOCOVERDIR (see censusRuns), and holds the
// functions declared under internal/ and cmd/ that none of them executes
// to the verdicts in testdata/unreached.txt. A never-run function the
// file does not list fails it, and so does a listed function that a run
// now reaches or that is gone: the file only shrinks.
//
// go test -run TestOnlyCodeARunReaches -v . prints the function count
// and the share of statements no run executes; a failure prints each
// unlisted function with the line to add once its verdict is decided.
func TestOnlyCodeARunReaches(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cover binaries and runs every run")
	}
	if raceEnabled {
		t.Skip("the race detector would slow every run, and coverage does not need it")
	}
	listed, err := readVerdicts(unreachedFile)
	if err != nil {
		t.Fatal(err)
	}

	tmp := t.TempDir()
	bin, cov, work := filepath.Join(tmp, "bin"), filepath.Join(tmp, "cov"), filepath.Join(tmp, "work")
	for _, d := range []string{bin, cov, filepath.Join(work, "bench")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Every binary has its own main package in -coverpkg: a cover binary
	// whose main package is not instrumented writes no counter files.
	goTool(t, "build", "-cover", "-coverpkg=./internal/...,./cmd/...,./examples/...",
		"-o", bin+string(filepath.Separator), "./cmd/hades", "./examples/...")
	goTool(t, "build", "-C", "bench", "-cover", "-coverpkg=hades/internal/...,hades/bench/...",
		"-o", filepath.Join(bin, "bench"), ".")

	runs, err := censusRuns(bin, work)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range runs {
		runAll(t, phase, cov)
	}
	if t.Failed() {
		return
	}

	prof := filepath.Join(tmp, "profile.txt")
	goTool(t, "tool", "covdata", "textfmt", "-i="+cov, "-o="+prof)
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	blocks := profileBlocks(data)
	never, err := neverRun(blocks)
	if err != nil {
		t.Fatal(err)
	}
	unrun, total := unrunStatements(blocks)
	t.Logf("%d functions under internal/ and cmd/ run in no run; so do %d of %d statements (%.1f %%)",
		len(never), unrun, total, 100*float64(unrun)/float64(max(total, 1)))

	unlisted, stale := censusDiff(never, listed)
	for _, k := range unlisted {
		t.Errorf("%s (%s): no run executes it and %s gives no verdict. Give it a run, delete it, or add the line\n\t%s <reach ITEM|hook TEST|interface IFACE|delete ITEM> <reason>",
			k, never[k], unreachedFile, k)
	}
	for _, k := range stale {
		t.Errorf("%s: %s gives a verdict, but a run now executes it or it is gone; remove the line", k, unreachedFile)
	}
}

// outcome is what a census run must end with.
type outcome uint8

const (
	succeeds  outcome = iota // exit 0
	refused                  // a non-zero exit: a reject-corpus scenario, a doctored diff
	mayRefuse                // exit 0 or 1: a trace export of a run without spans is refused
)

// judge returns why err breaks the outcome, or "".
func (o outcome) judge(err error) string {
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return err.Error()
		}
		code = ee.ExitCode() // -1 when a signal ended it
	}
	if (o == succeeds && code != 0) || (o == refused && code <= 0) || (o == mayRefuse && code != 0 && code != 1) {
		return "exit " + strconv.Itoa(code)
	}
	return ""
}

// censusRun is one process of the census.
type censusRun struct {
	dir  string
	argv []string
	want outcome
}

// censusRuns lists every run the tree has, in two phases: the runs that
// write artifacts, then the subcommands that read them. The first phase
// holds the bench driver's -quick (first, the longest; it writes out/ in
// its working directory); every builtin under run (plain, and with every
// export flag), load, feas and feas -validate; run on every regress and
// reject file; exp -quick; list; and each example. The second holds
// check on every artifact, trace -top on every trace export, metrics
// (the timeline) and metrics -slo -top on every metrics export, diff of
// every committed baseline against its builtin's new report, and diff
// against a doctored baseline, which must fail.
func censusRuns(bin, work string) ([2][]censusRun, error) {
	var phases [2][]censusRun
	hades := filepath.Join(bin, "hades")
	add := func(phase int, want outcome, args ...string) {
		phases[phase] = append(phases[phase], censusRun{work, append([]string{hades}, args...), want})
	}
	phases[0] = append(phases[0], censusRun{filepath.Join(work, "bench"), []string{filepath.Join(bin, "bench"), "-quick"}, succeeds})
	for _, b := range scenario.BuiltinNames() {
		tr, m, rep := filepath.Join(work, "t-"+b+".json"), filepath.Join(work, "m-"+b+".json"), filepath.Join(work, "LOAD_"+b+".json")
		add(0, succeeds, "run", "-builtin", b)
		add(0, succeeds, "run", "-builtin", b, "-gantt", "-events", "-trace", tr, "-metrics", m)
		add(0, succeeds, "load", "-builtin", b, "-out", rep)
		add(0, succeeds, "feas", "-builtin", b)
		add(0, succeeds, "feas", "-builtin", b, "-validate")
		add(1, mayRefuse, "check", tr)
		add(1, succeeds, "check", m)
		add(1, succeeds, "check", rep)
		add(1, mayRefuse, "trace", "-top", "3", tr)
		add(1, succeeds, "metrics", m)
		add(1, succeeds, "metrics", "-slo", "-top", "3", m)
	}
	for _, c := range []struct {
		glob string
		want outcome
	}{{"internal/scenario/testdata/regress/*.json", succeeds}, {"internal/scenario/testdata/reject/*.json", refused}} {
		files, err := filepath.Glob(c.glob)
		if err != nil || len(files) == 0 {
			return phases, fmt.Errorf("no scenario file matches %s (%v)", c.glob, err)
		}
		for _, f := range files {
			abs, err := filepath.Abs(f)
			if err != nil {
				return phases, err
			}
			add(0, c.want, "run", "-scenario", abs)
		}
	}
	add(0, succeeds, "exp", "-quick")
	add(0, succeeds, "list")
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		return phases, fmt.Errorf("no example found (%v)", err)
	}
	for _, m := range mains {
		phases[0] = append(phases[0], censusRun{work, []string{filepath.Join(bin, filepath.Base(filepath.Dir(m)))}, succeeds})
	}
	baselines, err := filepath.Glob("baselines/LOAD_*.json")
	if err != nil || len(baselines) == 0 {
		return phases, fmt.Errorf("no committed baseline found (%v)", err)
	}
	for _, base := range baselines {
		abs, err := filepath.Abs(base)
		if err != nil {
			return phases, err
		}
		add(1, succeeds, "diff", abs, filepath.Join(work, filepath.Base(base)))
	}
	// The regression gate's self-test: against a baseline whose p99s all
	// read 1 ns the new report is a regression, and diff must say so.
	ramp, err := os.ReadFile("baselines/LOAD_load-ramp.json")
	if err != nil {
		return phases, err
	}
	doctored := filepath.Join(work, "doctored.json")
	if err := os.WriteFile(doctored, regexp.MustCompile(`"p99_ns": [0-9]+`).ReplaceAll(ramp, []byte(`"p99_ns": 1`)), 0o644); err != nil {
		return phases, err
	}
	add(1, refused, "diff", doctored, filepath.Join(work, "LOAD_load-ramp.json"))
	return phases, nil
}

// runAll runs every run, two at a time, each writing its counters to cov,
// and fails t on each run whose exit breaks its outcome.
func runAll(t *testing.T, runs []censusRun, cov string) {
	env := append(os.Environ(), "GOCOVERDIR="+cov)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			var stderr bytes.Buffer
			cmd := exec.Command(r.argv[0], r.argv[1:]...)
			cmd.Dir, cmd.Env, cmd.Stderr = r.dir, env, &stderr
			if why := r.want.judge(cmd.Run()); why != "" {
				t.Errorf("%s %s: %s\n%s", filepath.Base(r.argv[0]), strings.Join(r.argv[1:], " "), why, stderr.Bytes())
			}
		}()
	}
	wg.Wait()
}

// goTool runs the go command from the module root and returns its
// standard output; any failure is fatal.
func goTool(t *testing.T, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// block is one coverage block of a textfmt profile: where it starts, as
// (line, column), its statements, and whether any run executed it.
type block struct {
	from  [2]int
	stmts int
	hit   bool
}

// profileLine matches a textfmt profile line under internal/ or cmd/:
// file, extent, statements, count.
var profileLine = regexp.MustCompile(`^hades/((?:internal|cmd)/\S+\.go):(\d+)\.(\d+),(\d+)\.(\d+) (\d+) (\d+)$`)

// profileBlocks parses a go tool covdata textfmt profile into the blocks
// of each file under internal/ and cmd/, keyed by its path in the module.
// A block listed twice is hit if either listing counted it.
func profileBlocks(profile []byte) map[string][]block {
	index := map[string]int{}
	out := map[string][]block{}
	for _, line := range strings.Split(string(profile), "\n") {
		m := profileLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		n := make([]int, 6)
		for k := range n {
			n[k], _ = strconv.Atoi(m[k+2])
		}
		b := block{from: [2]int{n[0], n[1]}, stmts: n[4], hit: n[5] > 0}
		key := m[1] + ":" + strings.Join(m[2:6], ",")
		if k, ok := index[key]; ok {
			out[m[1]][k].hit = out[m[1]][k].hit || b.hit
			continue
		}
		index[key] = len(out[m[1]])
		out[m[1]] = append(out[m[1]], b)
	}
	return out
}

// unrunStatements counts the statements in blocks and those no run
// executed.
func unrunStatements(blocks map[string][]block) (unrun, total int) {
	for _, bs := range blocks {
		for _, b := range bs {
			total += b.stmts
			if !b.hit {
				unrun += b.stmts
			}
		}
	}
	return unrun, total
}

// neverRun returns each function declared in a non-test file under
// internal/ and cmd/ that no run executed, keyed as "pkg.Func" or
// "pkg.Recv.Func" (pkg is the directory under internal/, or cmd/<name>)
// and mapped to "file:line". A function is executed when a block inside
// its body was. go tool covdata func is not used: it reports an empty
// body that ran at 0 % (no statements), and it omits a file no binary
// links, whose functions here all count as never run.
func neverRun(blocks map[string][]block) (map[string]string, error) {
	out := map[string]string{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return err
			}
			src, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			rel := filepath.ToSlash(file)
			return neverRunIn(rel, src, blocks[rel], out)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// neverRunIn adds to out the functions of src, the file at rel, that no
// block in blocks executed. A block belongs to the function its start
// lies in: cover opens a body's block just past its brace.
func neverRunIn(rel string, src []byte, blocks []block, out map[string]string) error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := strings.TrimPrefix(path.Dir(rel), "internal/")
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		lb, rb := fset.Position(fn.Body.Lbrace), fset.Position(fn.Body.Rbrace)
		from, to := [2]int{lb.Line, lb.Column}, [2]int{rb.Line, rb.Column}
		if slices.ContainsFunc(blocks, func(b block) bool {
			return b.hit && !before(b.from, from) && !before(to, b.from)
		}) {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			name = recvName(fn.Recv.List[0].Type) + "." + name
		}
		out[pkg+"."+name] = rel + ":" + strconv.Itoa(fset.Position(fn.Pos()).Line)
	}
	return nil
}

// before reports whether position a comes before b.
func before(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }

// recvName is a receiver's base type name, without pointer or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// verdict is one line of the verdict file: why a function no run
// executes stays.
type verdict struct{ kind, arg, reason string }

// verdictArg says, per verdict kind, what its argument must look like:
// a ROADMAP item ("23", "1(b)"), a test, or an interface ("pkg.Name").
var verdictArg = map[string]*regexp.Regexp{
	"reach":     regexp.MustCompile(`^[0-9]+(\([a-z]\))?$`),
	"delete":    regexp.MustCompile(`^[0-9]+(\([a-z]\))?$`),
	"hook":      regexp.MustCompile(`^(Test|Example|Benchmark)\w*$`),
	"interface": regexp.MustCompile(`^[a-z]\w*\.[A-Z]\w*$`),
}

// roadmapItem matches an open item's heading in ROADMAP.md.
var roadmapItem = regexp.MustCompile(`(?m)^([0-9]+)\. \*\*`)

// readVerdicts reads the verdict file, checking hooks against
// namesAllowlist and items against ROADMAP.md's open items.
func readVerdicts(file string) (map[string]verdict, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		return nil, err
	}
	items := map[string]bool{}
	for _, m := range roadmapItem.FindAllStringSubmatch(string(roadmap), -1) {
		items[m[1]] = true
	}
	return parseVerdicts(string(data), namesAllowlist, items)
}

// parseVerdicts parses verdict lines, "<func> <kind> <arg> <reason>",
// skipping blank lines and # comments. Each kind is one of verdictArg's,
// with an argument of its shape and a reason; a reach or delete item must
// be open, and a hook must be one namesAllowlist holds.
func parseVerdicts(text string, hooks map[string]string, items map[string]bool) (map[string]verdict, error) {
	out := map[string]verdict{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("line %d: want <func> <verdict> <arg> <reason>: %q", i+1, line)
		}
		name, v := f[0], verdict{f[1], f[2], strings.Join(f[3:], " ")}
		shape, ok := verdictArg[v.kind]
		switch {
		case !ok:
			return nil, fmt.Errorf("line %d: %s: verdict %q is none of reach, hook, interface, delete", i+1, name, v.kind)
		case !shape.MatchString(v.arg):
			return nil, fmt.Errorf("line %d: %s: %s argument %q does not match %s", i+1, name, v.kind, v.arg, shape)
		case (v.kind == "reach" || v.kind == "delete") && !items[strings.SplitN(v.arg, "(", 2)[0]]:
			return nil, fmt.Errorf("line %d: %s: ROADMAP.md has no open item %s", i+1, name, v.arg)
		case v.kind == "hook" && hooks[name] == "":
			return nil, fmt.Errorf("line %d: %s: a hook verdict needs the name in namesAllowlist", i+1, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("line %d: %s has a second verdict", i+1, name)
		}
		out[name] = v
	}
	return out, nil
}

// censusDiff returns, sorted, the never-run functions without a verdict
// and the functions with one that are no longer never-run.
func censusDiff(never map[string]string, listed map[string]verdict) (unlisted, stale []string) {
	for k := range never {
		if _, ok := listed[k]; !ok {
			unlisted = append(unlisted, k)
		}
	}
	for k := range listed {
		if _, ok := never[k]; !ok {
			stale = append(stale, k)
		}
	}
	slices.Sort(unlisted)
	slices.Sort(stale)
	return unlisted, stale
}

// TestCensusComparison runs the census's measure and comparison on
// synthetic input: a function counts as run when a block in its body ran,
// an empty one too, and a block listed twice counts if either listing
// ran; every malformed verdict is refused; and an unlisted never-run
// function and a listed function a run reaches each fail the comparison.
func TestCensusComparison(t *testing.T) {
	const src = `package lib

func ran() int { return 1 }

func empty() {}

func never() int { return 2 }

func (*List[T]) Push() { never() }

func (l List[T]) Len() int { return 0 }
`
	blocks := profileBlocks([]byte(strings.Join([]string{
		"mode: set",
		"hades/internal/lib/lib.go:3.17,3.28 1 1",
		"hades/internal/lib/lib.go:5.15,5.16 0 1",
		"hades/internal/lib/lib.go:7.19,7.30 1 0",
		"hades/internal/lib/lib.go:9.25,9.35 1 0",
		"hades/internal/lib/lib.go:11.29,11.40 1 0",
		"hades/internal/lib/lib.go:11.29,11.40 1 1",
		"hades/bench/compare.go:30.46,35.14 3 0",
	}, "\n")))
	if unrun, total := unrunStatements(blocks); unrun != 2 || total != 4 {
		t.Errorf("unrunStatements: %d of %d, want 2 of 4", unrun, total)
	}
	never := map[string]string{}
	if err := neverRunIn("internal/lib/lib.go", []byte(src), blocks["internal/lib/lib.go"], never); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"lib.never": "internal/lib/lib.go:7", "lib.List.Push": "internal/lib/lib.go:9"}
	if !maps.Equal(never, want) {
		t.Errorf("neverRunIn: got %v, want %v", never, want)
	}

	hooks := map[string]string{"store.Crash": "a test crashes it"}
	items := map[string]bool{"23": true, "1": true}
	good := "# comment\n\n" +
		"cluster.Cluster.SwitchMode reach 23 modes get their run\n" +
		"store.Crash hook TestCrash the recovery surface\n" +
		"sched.Static.Name interface dispatcher.Scheduler Wants refuses every kind\n" +
		"bench.Only delete 1(b) only bench calls it\n"
	listed, err := parseVerdicts(good, hooks, items)
	if err != nil || len(listed) != 4 {
		t.Fatalf("good verdicts: %d parsed, %v", len(listed), err)
	}
	for _, bad := range []string{
		"a.F reach 23",                          // no reason
		"a.F keep 23 a reason",                  // no such verdict
		"a.F reach 99 an item ROADMAP lacks",    // not an open item
		"a.F reach soon a reason",               // not an item
		"a.F hook TestF not in the allowlist",   // hook outside namesAllowlist
		"store.Crash hook crash a reason",       // not a test
		"a.F interface Scheduler a reason",      // not pkg.Iface
		"a.F delete 1 gone\na.F delete 1 again", // two verdicts
	} {
		if _, err := parseVerdicts(bad, hooks, items); err == nil {
			t.Errorf("parseVerdicts accepted %q", bad)
		}
	}

	unlisted, stale := censusDiff(map[string]string{"a.Unlisted": "x.go:1", "sched.Static.Name": "y.go:2"}, map[string]verdict{
		"sched.Static.Name": {}, "cluster.Cluster.SwitchMode": {},
	})
	if !slices.Equal(unlisted, []string{"a.Unlisted"}) || !slices.Equal(stale, []string{"cluster.Cluster.SwitchMode"}) {
		t.Errorf("censusDiff: unlisted %v, stale %v", unlisted, stale)
	}
}
