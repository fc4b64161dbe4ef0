package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp records where a result came from, so every number can be
// traced to the code and the machine that produced it.
type envStamp struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Shards     []int  `json:"shards"`
	Trace      int    `json:"trace"`
}

func stamp(w workload, seed int64, trace int) envStamp {
	return envStamp{
		Commit:     commit(),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   w.name,
		Seed:       seed,
		Shards:     runShards(trace),
		Trace:      trace,
	}
}

// commit is the checkout's git revision, or "unknown" when the working
// directory is not itself a git checkout; a "-dirty" suffix marks
// uncommitted changes.
func commit() string {
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		// Stop git's search for a repository at the working directory.
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		return cmd.Output()
	}
	out, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// sourceHash hashes every Go source and go.mod file under root, by
// path, skipping hidden and build-output directories. It identifies the
// code even where there is no git history.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the hash
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bin") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f) // a short read only weakens the stamp
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
