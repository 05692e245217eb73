package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fingerprint prints what a result depends on besides the code: the
// host, the toolchain, the source revision, the seed, the offered
// rates and the sync policy.
func (b *bench) fingerprint() {
	b.note("workload %s seed %d seconds %g trace %v", b.w.name, b.seed, b.secs, b.tr != nil)
	b.note("host: nproc %d, GOMAXPROCS %d, cpu %q, %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	b.note("source: commit %s, tree sha256 %s", commit(), sourceDigest())
	b.note("load: open-loop rate %g req/s, connections %d, shards %d, fsync=always, WAL segments in memory", b.w.rate, b.nproc, shards)
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

// commit is the git revision of the checkout, when it is a git
// repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout
// outside buildDir, so two runs can be matched to the same code even
// without git.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (p == buildDir || strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasSuffix(p, ".s")) {
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
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the host's cumulative steal and total CPU time from
// /proc/stat (clock ticks); ok is false where it is unavailable.
func cpuTimes() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
