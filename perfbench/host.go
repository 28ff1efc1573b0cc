package main

// The host block every result records: CPU model, CPU count,
// GOMAXPROCS of the generator and the server, Go version, commit,
// kernel, and the filesystems under the WAL and spill directories.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

type hostInfo struct {
	CPUModel         string `json:"cpu_model"`
	NProc            int    `json:"nproc"`
	GeneratorProcs   int    `json:"gomaxprocs_generator"`
	ServerProcs      int    `json:"gomaxprocs_server"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	SourceDigest     string `json:"source_digest"`
	Kernel           string `json:"kernel"`
	WALFilesystem    string `json:"wal_fs"`
	SpillFilesystem  string `json:"spill_fs,omitempty"`
	GeneratorConns   int    `json:"generator_connections"`
	ServerCommandTag string `json:"server_flags"`
}

func collectHost(root string, s *server, serverProcs int) hostInfo {
	h := hostInfo{
		CPUModel:       cpuModel(),
		NProc:          runtime.NumCPU(),
		GeneratorProcs: runtime.GOMAXPROCS(0),
		ServerProcs:    serverProcs,
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(root),
		SourceDigest:   sourceDigest(root),
		Kernel:         strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GeneratorConns: runtime.NumCPU(),
	}
	if s != nil {
		h.WALFilesystem = fsType(filepath.Join(s.dir, "wal"))
		if _, err := os.Stat(filepath.Join(s.dir, "spill")); err == nil {
			h.SpillFilesystem = fsType(filepath.Join(s.dir, "spill"))
		}
		h.ServerCommandTag = strings.Join(s.flags, " ")
	}
	return h
}

func readFile(p string) string {
	b, _ := os.ReadFile(p) // absent files read as empty: the field is informational
	return string(b)
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

// gitCommit names the checked-out commit when the tree is a git
// checkout; benchmark checkouts often are not, and then the source
// digest identifies the code instead.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, skipping build and run output.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		b, err := os.ReadFile(p)
		if err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var fsMagic = map[int64]string{
	0xef53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x9123683e: "btrfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if n, ok := fsMagic[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
