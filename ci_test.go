package tprof

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCINamesRealTests: every test a CI step selects by name exists. For
// each go test command in the workflow, every alternative of its -run,
// -bench and -fuzz patterns — other than '^$', which selects nothing on
// purpose — must match a Test, Benchmark or Fuzz function in the packages
// the command names. An alternative that matches nothing is a gate that
// stopped running without anyone noticing.
func TestCINamesRealTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	raw, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	commands := 0
	for n, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		commands++
		pkgs, patterns := goTestArgs(shellWords(line[at+len("go test "):]))
		funcs := testFuncs(t, pkgs)
		for flag, pattern := range patterns {
			for _, alt := range alternatives(pattern) {
				if alt == "^$" {
					continue
				}
				top, _, _ := strings.Cut(alt, "/") // the top-level test's element
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%s:%d: %s %q: %v", workflow, n+1, flag, alt, err)
					continue
				}
				found := false
				for _, name := range funcs {
					for _, p := range prefixes[flag] {
						found = found || strings.HasPrefix(name, p) && re.MatchString(name)
					}
				}
				if !found {
					t.Errorf("%s:%d: %s alternative %q matches no %s function in %v",
						workflow, n+1, flag, alt, strings.Join(prefixes[flag], "/"), pkgs)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatalf("%s has no go test command", workflow)
	}
}

// shellWords splits a shell command line into words, honouring single and
// double quotes, and stops at the first unquoted operator (>, |, ;, &).
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words, inWord = append(words, cur.String()), false
				cur.Reset()
			}
		case strings.ContainsRune(">|;&", r):
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// goTestArgs separates go test's arguments into package patterns (the
// current directory when there are none) and the -run, -bench and -fuzz
// patterns by flag.
func goTestArgs(words []string) (pkgs []string, patterns map[string]string) {
	patterns = map[string]string{}
	valued := map[string]bool{"-run": true, "-bench": true, "-fuzz": true, "-fuzztime": true, "-benchtime": true, "-count": true}
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			pkgs = append(pkgs, w)
			continue
		}
		name, value, hasValue := strings.Cut(w, "=")
		if !hasValue && valued[name] && i+1 < len(words) {
			i++
			value = words[i]
		}
		if name == "-run" || name == "-bench" || name == "-fuzz" {
			patterns[name] = value
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pkgs, patterns
}

// alternatives splits a regular expression at its top-level '|'.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// testFuncs lists the Test, Benchmark and Fuzz functions of the packages
// the patterns name (a trailing /... includes every package below).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	add := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, "_test.go"):
				add(path)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("package %s: %v", pkg, err)
		}
	}
	return names
}
