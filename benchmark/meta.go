package main

import (
	"debug/buildinfo"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostMeta describes the host and the builds a result came from, so results
// from different core counts or builds are never mixed up.
func hostMeta(daemonBin string) map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m["revision"], m["dirty"] = vcs(bi.Settings)
	}
	if daemonBin != "" {
		if bi, err := buildinfo.ReadFile(daemonBin); err == nil {
			m["daemon_pgo"] = setting(bi.Settings, "-pgo") != ""
			m["daemon_revision"], m["daemon_dirty"] = vcs(bi.Settings)
		}
	}
	return m
}

func setting(s []debug.BuildSetting, key string) string {
	for _, kv := range s {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// vcs returns the git revision stamped into a build ("unknown" when built
// outside a git checkout) and whether the tree had local changes.
func vcs(s []debug.BuildSetting) (string, bool) {
	rev := setting(s, "vcs.revision")
	if rev == "" {
		rev = "unknown"
	}
	return rev, setting(s, "vcs.modified") == "true"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
