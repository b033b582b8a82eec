package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// host identifies the machine and code a result was measured on. Wall-clock
// metrics are only comparable between results whose host fields agree.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision the binary was built from, or "unknown"
	// outside a repository; Source is a digest of the Go sources and
	// go.mod files under the working directory, which identifies the code
	// in either case.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     vcsRevision(),
		Source:     sourceDigest("."),
	}
}

// sameMachine reports whether wall-clock results of a and b may be compared.
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes the names and contents of the .go and go.mod files
// under root, skipping directories whose name starts with a dot.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// machineFree lists the metrics that do not depend on the machine: work
// and allocation counts and ratios of counts. Every other metric is
// wall-clock or host-dependent.
func machineFree(name, unit string) bool {
	switch name {
	case "flood.replay_hit_rate", "eval.run_pool_hit_rate", "eval.degraded_per_trial":
		return true
	}
	return unit == "count"
}

// compareMain prints the metrics of two stored reports side by side. It
// refuses wall-clock metrics when the host fingerprints differ, and for two
// runs of the same workload, seed and source it checks that the
// deterministic counts repeat exactly; a drift makes it exit 1.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare OLD.json NEW.json")
		return 2
	}
	var reps [2]report
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench compare: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "e2ebench compare: %s/trace%d and %s/trace%d are different runs\n",
			a.Workload, a.Trace, b.Workload, b.Trace)
		return 2
	}
	same := a.Host.sameMachine(b.Host)
	if !same {
		fmt.Fprintf(stdout, "hosts differ (%s, %d cpus, %s vs %s, %d cpus, %s): wall-clock metrics refused\n",
			a.Host.CPU, a.Host.GOMAXPROCS, a.Host.GoVersion, b.Host.CPU, b.Host.GOMAXPROCS, b.Host.GoVersion)
	}
	for _, k := range sortedKeys(a.Metrics) {
		ma, mb := a.Metrics[k], b.Metrics[k]
		if _, ok := b.Metrics[k]; !ok {
			continue
		}
		if !same && !machineFree(k, ma.Unit) {
			fmt.Fprintf(stdout, "  %-32s refused: host-dependent (%s)\n", k, ma.Unit)
			continue
		}
		fmt.Fprintf(stdout, "  %-32s %14.6g -> %14.6g %s (x%.3f)\n", k, ma.Value, mb.Value, ma.Unit, ratio(mb.Value, ma.Value))
	}
	if a.Seed != b.Seed || a.Host.Source != b.Host.Source {
		return 0
	}
	drift := 0
	for _, k := range sortedKeys(a.Deterministic) {
		if va, vb := a.Deterministic[k], b.Deterministic[k]; va != vb {
			fmt.Fprintf(stdout, "drift: %s is %v then %v on the same seed and source\n", k, va, vb)
			drift++
		}
	}
	if drift > 0 {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
