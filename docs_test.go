package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links and images: [text](target).
// Reference-style links and autolinks are not used in this repo's docs.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsRelativeLinks checks every relative link in the repo's
// markdown files against the filesystem, so a renamed file or a typo'd
// anchor target fails CI instead of rotting silently.
func TestDocsRelativeLinks(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(mds) == 0 {
		t.Fatal("no markdown files at the repo root")
	}
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			path := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken relative link %q: %v", md, m[1], err)
			}
		}
	}
}

// headingSlug reduces a markdown heading to its GitHub anchor slug:
// lowercase, punctuation stripped, spaces hyphenated.
func headingSlug(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == '-':
			b.WriteRune(r)
		}
	}
	return strings.ReplaceAll(b.String(), " ", "-")
}

// mdHeading matches ATX headings; the capture is the heading text.
var mdHeading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// TestDocsAnchors resolves every #anchor fragment in the markdown
// links — both in-page (#foo) and cross-file (DESIGN.md#foo) — against
// the target file's headings, so a reworded section title breaks CI
// instead of leaving a link that silently scrolls to the top.
func TestDocsAnchors(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	slugs := map[string]map[string]bool{} // file -> anchor set
	anchorsOf := func(path string) map[string]bool {
		if s, ok := slugs[path]; ok {
			return s
		}
		s := map[string]bool{}
		if data, err := os.ReadFile(path); err == nil {
			for _, m := range mdHeading.FindAllStringSubmatch(string(data), -1) {
				s[headingSlug(m[1])] = true
			}
		}
		slugs[path] = s
		return s
	}
	checked := 0
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, anchor, ok := strings.Cut(target, "#")
			if !ok || anchor == "" {
				continue
			}
			if file == "" {
				file = md
			} else {
				file = filepath.Join(filepath.Dir(md), file)
			}
			if !strings.HasSuffix(file, ".md") {
				continue
			}
			checked++
			if !anchorsOf(file)[anchor] {
				t.Errorf("%s: link %q: no heading in %s slugs to %q",
					md, m[1], file, anchor)
			}
		}
	}
	if checked == 0 {
		t.Error("no anchored markdown links found; the check is vacuous")
	}
}

// flagDef matches a flag definition in Go source: any FlagSet method
// or package-level flag call of the form .String("name", ...).
var flagDef = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func)\(\s*"([^"]+)"`)

// readmeFlag matches an inline-backticked CLI flag in the docs:
// `-queues N`, `-noswitch`, `-kind mode-switch|...`.
var readmeFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")

// TestDocsFlagsExist checks that every backticked `-flag` the README's
// CLI tables mention is actually defined by a flag declaration under
// cmd/, so renaming a flag without updating the docs fails CI.
func TestDocsFlagsExist(t *testing.T) {
	defined := map[string]bool{}
	srcs, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) == 0 {
		t.Fatal("no Go sources under cmd/")
	}
	for _, src := range srcs {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range readmeFlag.FindAllStringSubmatch(string(data), -1) {
		checked++
		if !defined[m[1]] {
			t.Errorf("README.md mentions flag %q (as %s) but no cmd/ source defines it", m[1], m[0])
		}
	}
	if checked == 0 {
		t.Error("no backticked flags found in README.md; the check is vacuous")
	}
}

// TestDocsBacktickedFiles checks that repo paths named in backticks in
// the README and ARCHITECTURE (the docs most prone to drift) still
// exist: `DESIGN.md`, `internal/fleet`, `cmd/benchtab`, ...
func TestDocsBacktickedFiles(t *testing.T) {
	ref := regexp.MustCompile("`((?:internal|cmd|examples)/[a-z0-9_/-]+|[A-Z][A-Z_a-z0-9]*\\.md)`")
	for _, md := range []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(data), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s: references %q which does not exist", md, m[1])
			}
		}
	}
}

// TestEveryInternalPackageHasDoc: each internal package carries its
// overview in a doc.go whose comment begins "// Package <name>", so
// `go doc repro/internal/<name>` gives a real description of the layer.
func TestEveryInternalPackageHasDoc(t *testing.T) {
	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no internal packages")
	}
	for _, p := range pkgs {
		if !p.IsDir() {
			continue
		}
		doc := filepath.Join("internal", p.Name(), "doc.go")
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("internal/%s has no doc.go: %v", p.Name(), err)
			continue
		}
		want := "// Package " + p.Name()
		if !strings.HasPrefix(string(data), want) {
			t.Errorf("%s does not begin with %q", doc, want)
		}
	}
}

// TestEveryCommandHasTest: every binary is checked. Each directory
// under cmd/ that holds a package main carries at least one _test.go
// file, so `go test ./...` runs something of every command.
func TestEveryCommandHasTest(t *testing.T) {
	isMain, hasTest := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "cmd" && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") {
			hasTest[dir] = true
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			isMain[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(isMain) == 0 {
		t.Fatal("no package main under cmd/; the check is vacuous")
	}
	for dir := range isMain {
		if !hasTest[dir] {
			t.Errorf("%s is a command with no _test.go file", dir)
		}
	}
}

// TestDocsCodeRefs checks the code the design docs point at: every
// backticked Go file path must name a file in the repo (matched by its
// trailing path elements, so `core/switch.go` resolves to
// internal/core/switch.go), and every backticked Test, Benchmark,
// Example or Fuzz name, bare or package-qualified, must be declared in
// a _test.go file. A name ending in "_*" stands for every function with
// that prefix, and at least one must exist.
func TestDocsCodeRefs(t *testing.T) {
	var goFiles []string
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		goFiles = append(goFiles, filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fileRef := regexp.MustCompile("`([A-Za-z0-9_./-]+\\.go)`")
	funcRef := regexp.MustCompile("`(?:[a-z][a-z0-9]*\\.)?((?:Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]+\\*?)`")
	checked := 0
	for _, md := range []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fileRef.FindAllStringSubmatch(string(data), -1) {
			checked++
			found := false
			for _, f := range goFiles {
				if f == m[1] || strings.HasSuffix(f, "/"+m[1]) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: names %q, which is no Go file in the repo", md, m[1])
			}
		}
		for _, m := range funcRef.FindAllStringSubmatch(string(data), -1) {
			checked++
			name, found := m[1], false
			if prefix, ok := strings.CutSuffix(name, "_*"); ok {
				for f := range funcs {
					found = found || strings.HasPrefix(f, prefix+"_")
				}
			} else {
				found = funcs[name]
			}
			if !found {
				t.Errorf("%s: names %q, which no _test.go file declares", md, m[0])
			}
		}
	}
	if checked == 0 {
		t.Error("no backticked code references found; the check is vacuous")
	}
}
