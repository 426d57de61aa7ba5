package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// machine is the descriptor every printed result carries.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// Commit is the checked-out git revision when the tree is a git
	// checkout, else "unknown"; SourceDigest identifies the measured
	// source either way (SHA-256 over every .go file and go.mod).
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func describeMachine() machine {
	m := machine{
		CPU:          "unknown",
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Go:           runtime.Version(),
		Kernel:       "unknown",
		Commit:       gitCommit("."),
		SourceDigest: sourceDigest("."),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = runtime.GOOS + " " + strings.TrimSpace(string(b))
	}
	return m
}

// gitCommit resolves HEAD of a git checkout at root without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if h, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources under root in path order, skipping
// hidden directories (build outputs live in .bench_build).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
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
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB; off
// Linux it falls back to the bytes the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuSteal returns the machine's cumulative steal and total CPU time in
// clock ticks (both 0 where /proc/stat is unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// quantile is the linear-interpolated q-quantile of xs; NaN for an
// empty slice. xs is left in its order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99Block is the sample count behind each p99 blockP99 takes: ten
// samples lie beyond the 99th percentile of each block.
const p99Block = 1000

// blockP99 is the median over consecutive p99Block-sample blocks of each
// block's p99 (the p99 of all samples when there are fewer). One GC
// cycle or one slow second moves a single block's p99, not the result,
// so the figure is steady across runs while still measuring the tail.
func blockP99(xs []float64) float64 {
	if len(xs) < 2*p99Block {
		return quantile(xs, 0.99)
	}
	var p99s []float64
	for i := 0; i+p99Block <= len(xs); i += p99Block {
		p99s = append(p99s, quantile(xs[i:i+p99Block], 0.99))
	}
	return median(p99s)
}

// validRatios reports whether every pair's split ratios are finite,
// non-negative and sum to 1 within 1e-9.
func validRatios(pairPaths [][]int, r []float64) bool {
	n := 0
	for _, pp := range pairPaths {
		n += len(pp)
	}
	if len(r) != n {
		return false
	}
	for _, pp := range pairPaths {
		sum := 0.0
		for _, p := range pp {
			v := r[p]
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
