package hermes_test

import (
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the markdown documents whose fenced Go snippets must be
// gofmt-clean — the ones that teach the API.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "docs/serving.md", "docs/workloads.md", "docs/faults.md", "docs/tenancy.md"}

// goFence matches a fenced Go code block and captures its body.
var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

// mdLink matches inline markdown links and captures the destination.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// gofmtClean checks that a snippet is gofmt-formatted. Snippets may be
// full files, top-level declarations, or statement sequences; the
// latter two are wrapped the way gofmt would indent them and must
// match byte-for-byte after formatting.
func gofmtClean(snippet string) error {
	if !strings.HasSuffix(snippet, "\n") {
		snippet += "\n"
	}
	candidates := []string{
		snippet,
		"package p\n\n" + snippet,
		"package p\n\nfunc _() {\n" + indent(snippet) + "}\n",
	}
	var firstErr error
	for _, c := range candidates {
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "snippet.go", c, parser.ParseComments); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		got, err := format.Source([]byte(c))
		if err != nil {
			return err
		}
		if string(got) != c {
			return fmt.Errorf("not gofmt-clean; want:\n%s", got)
		}
		return nil
	}
	return fmt.Errorf("snippet does not parse under any wrapping: %v", firstErr)
}

// indent prefixes every non-blank line with one tab — the indentation
// gofmt gives a function body.
func indent(s string) string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = "\t" + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestDocsGoSnippetsGofmt extracts every ```go fence from the docs and
// fails if any would be rewritten by gofmt — the docs-layer analogue
// of the gofmt CI gate on source files.
func TestDocsGoSnippetsGofmt(t *testing.T) {
	total := 0
	for _, path := range docFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i, m := range goFence.FindAllStringSubmatch(string(data), -1) {
			total++
			if err := gofmtClean(m[1]); err != nil {
				t.Errorf("%s: go snippet %d: %v", path, i+1, err)
			}
		}
	}
	if total == 0 {
		t.Fatal("no Go snippets found in docs — extraction regex broken?")
	}
}

// TestDocsRelativeLinks walks every tracked markdown file and checks
// that each relative link points at a path that exists.
func TestDocsRelativeLinks(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			dest := m[1]
			if strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://") ||
				strings.HasPrefix(dest, "mailto:") || strings.HasPrefix(dest, "#") {
				continue
			}
			if i := strings.IndexByte(dest, '#'); i >= 0 {
				dest = dest[:i]
			}
			if dest == "" {
				continue
			}
			target := filepath.Join(filepath.Dir(path), dest)
			if _, statErr := os.Stat(target); statErr != nil {
				t.Errorf("%s: dead link %q (resolved %s)", path, m[1], target)
			}
			checked++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no relative links found in any markdown file — link regex broken?")
	}
}

// repoPath matches a repo-relative path under cmd/, internal/ or
// examples/ wherever a document names one: a back-ticked package, a
// `go run ./cmd/...` line in a fence, a row of a package table.
var repoPath = regexp.MustCompile(`\b(?:cmd|internal|examples)/[\w-]+(?:[./][\w-]+)*`)

// TestDocsNamedPathsExist fails when a document names a package,
// command or file that is not on disk — how the docs learn that a
// binary or package they teach has been deleted or moved.
func TestDocsNamedPathsExist(t *testing.T) {
	checked := 0
	for _, doc := range append(docFiles, ".claude/skills/verify/SKILL.md") {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, p := range repoPath.FindAllString(string(data), -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %q, which does not exist", doc, p)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no repo paths found in any document — path regex broken?")
	}
}
