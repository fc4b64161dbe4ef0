package driver

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// printGitHub writes one GitHub Actions workflow command per finding:
// the runner turns these into inline PR annotations.
func printGitHub(fset *token.FileSet, findings []Finding) {
	for _, f := range findings {
		pos := fset.Position(f.Pos)
		fmt.Printf("::error file=%s,line=%d,col=%d,title=speedlightvet/%s::%s\n",
			relPath(pos.Filename), pos.Line, pos.Column, f.Analyzer, ghEscape(f.Message))
	}
}

// ghEscape encodes the characters the workflow-command grammar
// reserves in message data.
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// relPath shortens name relative to the working directory when it can.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
