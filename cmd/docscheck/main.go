// Docscheck lints the repository's Markdown documentation: every fenced
// ```go code block must be valid, gofmt-clean Go (full files and
// statement fragments both count — fragments are checked inside a
// synthetic wrapper), and every intra-repository link must point at a
// file or directory that exists. CI runs it over README.md, docs/, and
// examples/ so documentation cannot rot silently as the tree moves.
//
// Usage:
//
//	docscheck [-root DIR] PATH...
//
// PATHs are Markdown files or directories (walked for *.md). Exit
// status 1 means at least one problem; each is printed as
// file:line: message.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root that absolute-style links resolve against")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: docscheck [-root DIR] FILE_OR_DIR...")
		os.Exit(2)
	}
	var files []string
	for _, arg := range flag.Args() {
		fi, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		if !fi.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
	}
	problems := 0
	for _, f := range files {
		for _, p := range checkFile(f, *root) {
			fmt.Println(p)
			problems++
		}
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s) in %d file(s)\n", problems, len(files))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean\n", len(files))
}

// checkFile returns the problems of one Markdown file.
func checkFile(path, root string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	blocks, prose, unclosed := splitFenced(string(data))
	if unclosed > 0 {
		problems = append(problems, fmt.Sprintf("%s:%d: unclosed code fence (everything after it goes unchecked)", path, unclosed))
	}
	for _, b := range blocks {
		if b.lang != "go" {
			continue
		}
		if msg := checkGoBlock(b.body); msg != "" {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", path, b.line, msg))
		}
	}
	for _, l := range scanLinks(prose) {
		if msg := checkLink(l.target, path, root); msg != "" {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", path, l.line, msg))
		}
	}
	return problems
}

// fencedBlock is one ``` fence: its info-string language, body, and the
// 1-based line of the opening fence.
type fencedBlock struct {
	lang string
	body string
	line int
}

// link is one [text](target) occurrence outside code.
type link struct {
	target string
	line   int
}

// splitFenced separates fenced code blocks from prose. The returned
// prose has code lines blanked (line numbers preserved) so link scanning
// never fires inside code. unclosed is the line of a fence left open at
// EOF (0 if none): such a file has content no check ever saw, which must
// be a loud failure rather than a silent pass.
func splitFenced(src string) ([]fencedBlock, string, int) {
	lines := strings.Split(src, "\n")
	var blocks []fencedBlock
	prose := make([]string, len(lines))
	inFence := false
	var cur fencedBlock
	var body []string
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if !inFence {
				inFence = true
				cur = fencedBlock{lang: strings.TrimSpace(strings.TrimPrefix(trimmed, "```")), line: i + 1}
				body = body[:0]
			} else {
				cur.body = strings.Join(body, "\n")
				blocks = append(blocks, cur)
				inFence = false
			}
			prose[i] = ""
			continue
		}
		if inFence {
			body = append(body, line)
			prose[i] = ""
		} else {
			prose[i] = line
		}
	}
	unclosed := 0
	if inFence {
		unclosed = cur.line
	}
	return blocks, strings.Join(prose, "\n"), unclosed
}

// checkGoBlock verifies one ```go block is parseable, gofmt-clean Go.
// A block may be a complete file (has a package clause) or a statement
// fragment; fragments are wrapped in a synthetic func for parsing, and
// their gofmt comparison runs against the wrapper's re-indented body so
// the doc text itself must be formatted exactly as gofmt would print it.
func checkGoBlock(body string) string {
	if strings.TrimSpace(body) == "" {
		return "empty go code block"
	}
	src := body
	if !strings.HasSuffix(src, "\n") {
		src += "\n"
	}
	if formatted, err := format.Source([]byte(src)); err == nil {
		if string(formatted) != src {
			return "go block is not gofmt-clean"
		}
		return ""
	}
	// Fragment: wrap statements in a file. The block's own lines are
	// indented one tab (gofmt's func-body level) before comparing.
	var indented strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.TrimSpace(line) == "" {
			indented.WriteString("\n")
		} else {
			indented.WriteString("\t" + line + "\n")
		}
	}
	wrapped := "package p\n\nfunc _() {\n" + indented.String() + "}\n"
	formatted, err := format.Source([]byte(wrapped))
	if err != nil {
		return fmt.Sprintf("go block does not parse (as file or fragment): %v", err)
	}
	if string(formatted) != wrapped {
		return "go block is not gofmt-clean"
	}
	return ""
}

// linkRE matches [text](target); images (![...](...)) match too via the
// bracket pair.
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^()\s]+)\)`)

// scanLinks extracts link targets with their line numbers.
func scanLinks(prose string) []link {
	var links []link
	for i, line := range strings.Split(prose, "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			links = append(links, link{target: m[1], line: i + 1})
		}
	}
	return links
}

// checkLink verifies an intra-repository link resolves to an existing
// file or directory. External links (scheme://, mailto:) and pure
// anchors are skipped — this is a filesystem check, not a crawler.
func checkLink(target, mdPath, root string) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return ""
	}
	if strings.HasPrefix(target, "#") {
		return ""
	}
	// Strip an in-file anchor.
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	resolved := target
	if strings.HasPrefix(target, "/") {
		resolved = filepath.Join(root, target)
	} else {
		resolved = filepath.Join(filepath.Dir(mdPath), target)
	}
	if _, err := os.Stat(resolved); err != nil {
		return fmt.Sprintf("broken link %q (%s does not exist)", target, resolved)
	}
	return ""
}
