// Package workflow holds a lint test for the CI workflow: every step must
// be one well-formed YAML mapping, and every `go test -run` pattern a step
// runs must select at least one test of the packages it names. A YAML
// decoder silently keeps the last of two duplicate keys, so a step that
// lost its `- name:` line merges into the step before it and one of the two
// commands never runs; a pattern that matches nothing passes vacuously.
// Both failures are invisible in a green CI run, so this test catches them
// with the standard library only: a line scanner for the workflow's block
// style and a regexp scan of the repository's test files.
package workflow

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// step is one entry of a job's steps list.
type step struct {
	line int            // 1-based line of the entry's "- "
	keys map[string]int // key -> number of occurrences
	runs []string       // the command text of each run: key
}

var keyRe = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_-]*):(\s|$)`)

func indent(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }

// parseSteps returns the entries of every steps: list in a block-style
// workflow. An entry's keys are the text after its "- " and every line
// indented two columns deeper than the dash; a run: value is either inline
// or a literal block of the more-indented lines below it.
func parseSteps(src string) []step {
	lines := strings.Split(src, "\n")
	var steps []step
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "steps:" {
			continue
		}
		base := indent(lines[i])
		dash := -1
		var cur *step
		var runAt int // key column of the entry being read
		for i++; i < len(lines); i++ {
			l := lines[i]
			t := strings.TrimSpace(l)
			if t == "" || strings.HasPrefix(t, "#") {
				continue
			}
			in := indent(l)
			if in <= base && !strings.HasPrefix(t, "- ") {
				break // the mapping that owns steps: continues
			}
			if strings.HasPrefix(t, "- ") && (dash < 0 || in == dash) {
				dash = in
				steps = append(steps, step{line: i + 1, keys: map[string]int{}})
				cur = &steps[len(steps)-1]
				runAt = in + 2
				i = cur.addKey(lines, i, strings.TrimPrefix(t, "- "), runAt)
				continue
			}
			if in < dash {
				break
			}
			if cur != nil && in == runAt {
				i = cur.addKey(lines, i, t, runAt)
			}
		}
		i--
	}
	return steps
}

// addKey records the key on line i (text t, key column col) and, for run:,
// its command; it returns the last line the key's value spans.
func (s *step) addKey(lines []string, i int, t string, col int) int {
	m := keyRe.FindStringSubmatch(t)
	if m == nil {
		return i
	}
	s.keys[m[1]]++
	val := strings.TrimSpace(strings.TrimPrefix(t, m[1]+":"))
	if strings.HasPrefix(val, "|") || strings.HasPrefix(val, ">") {
		var body []string
		j := i + 1
		for ; j < len(lines); j++ {
			if strings.TrimSpace(lines[j]) != "" && indent(lines[j]) <= col {
				break
			}
			body = append(body, strings.TrimSpace(lines[j]))
		}
		val = strings.Join(body, "\n")
		i = j - 1
	}
	if m[1] == "run" {
		s.runs = append(s.runs, val)
	}
	return i
}

// goTestRun is one `go test -run PATTERN pkgs...` invocation.
type goTestRun struct {
	pattern string
	pkgs    []string
}

var runFlagRe = regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)

// testRuns extracts the -run invocations of a step's command text.
func testRuns(cmd string) []goTestRun {
	var out []goTestRun
	for _, line := range strings.Split(cmd, "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runFlagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := goTestRun{pattern: m[1] + m[2] + m[3]}
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				r.pkgs = append(r.pkgs, f)
			}
		}
		out = append(out, r)
	}
	return out
}

// alternatives splits a pattern at its top-level '|' (outside parentheses
// and brackets), keeping only the part before a top-level '/' — the
// top-level test a subtest pattern selects through.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	cut := -1
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == '/' && depth == 0 && cut < 0:
			cut = i
		case c == '|' && depth == 0 && cut < 0:
			out = append(out, pattern[start:i])
			start = i + 1
		}
	}
	end := len(pattern)
	if cut >= 0 {
		end = cut
	}
	return append(out, pattern[start:end])
}

var testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)

// testNames returns the test, fuzz and example function names of the Go
// package directories a `go test` argument names, relative to root. "./..."
// suffixes walk the subtree, skipping hidden directories, testdata and
// nested modules, as the go command does.
func testNames(root, pkg string) ([]string, error) {
	var dirs []string
	if rest, ok := strings.CutSuffix(pkg, "/..."); ok {
		top := filepath.Join(root, rest)
		err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != top && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		dirs = []string{filepath.Join(root, pkg)}
	}
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	return names, nil
}

// lint returns one message per defect in a workflow: a step with a key
// given twice, or a -run alternative that selects no test of its packages.
func lint(src, root string) ([]string, error) {
	var problems []string
	for _, s := range parseSteps(src) {
		var dup []string
		for k, n := range s.keys {
			if n > 1 {
				dup = append(dup, fmt.Sprintf("%s: x%d", k, n))
			}
		}
		sort.Strings(dup)
		if len(dup) > 0 {
			problems = append(problems, fmt.Sprintf("line %d: step repeats keys (%s): a step lost its \"- name:\" line", s.line, strings.Join(dup, ", ")))
		}
		for _, cmd := range s.runs {
			for _, r := range testRuns(cmd) {
				if r.pattern == "^$" {
					continue // deliberately no tests: a fuzz or bench-only invocation
				}
				pkgs := r.pkgs
				if len(pkgs) == 0 {
					pkgs = []string{"."}
				}
				var names []string
				for _, p := range pkgs {
					ns, err := testNames(root, p)
					if err != nil {
						return nil, err
					}
					names = append(names, ns...)
				}
				for _, alt := range alternatives(r.pattern) {
					re, err := regexp.Compile(alt)
					if err != nil {
						problems = append(problems, fmt.Sprintf("line %d: -run %q: %v", s.line, r.pattern, err))
						continue
					}
					hit := false
					for _, n := range names {
						if re.MatchString(n) {
							hit = true
							break
						}
					}
					if !hit {
						problems = append(problems, fmt.Sprintf("line %d: -run %q: %q selects no test in %s", s.line, r.pattern, alt, strings.Join(pkgs, " ")))
					}
				}
			}
		}
	}
	return problems, nil
}

// repoRoot is the directory holding the module's go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}

// TestCIWorkflow lints the repository's CI workflow.
func TestCIWorkflow(t *testing.T) {
	root := repoRoot(t)
	src, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(parseSteps(string(src))); n < 10 {
		t.Fatalf("parsed only %d steps: the scanner no longer understands the workflow", n)
	}
	problems, err := lint(string(src), root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestLintCatchesDefects: the linter flags a step that lost its "- name:"
// line, and a pattern alternative that selects nothing, and passes the
// well-formed equivalent.
func TestLintCatchesDefects(t *testing.T) {
	root := repoRoot(t)
	const bad = `jobs:
  check:
    steps:
      - name: Walks
        run: go test -run TestCIWorkflow -v ./internal/workflow
        # the next step's "- name:" line is missing
        run: go test -run 'TestLintCatchesDefects|TestNoSuchThing' ./internal/workflow
      - name: Fuzz smoke
        run: go test -run '^$' -fuzz FuzzNothing ./internal/workflow
`
	problems, err := lint(bad, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 || !strings.Contains(problems[0], "run: x2") || !strings.Contains(problems[1], `"TestNoSuchThing"`) {
		t.Fatalf("want the repeated run: key and the dead alternative, got %q", problems)
	}
	good := strings.Replace(bad, `        # the next step's "- name:" line is missing
`, "      - name: More walks\n", 1)
	good = strings.Replace(good, "|TestNoSuchThing", "", 1)
	if problems, err := lint(good, root); err != nil || len(problems) != 0 {
		t.Fatalf("well-formed workflow flagged: %q (%v)", problems, err)
	}
}
