package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ; 100 on every Linux the repo targets.
const clockTick = 100

// parseProcStat extracts the CPU time (user + system, in milliseconds)
// from the text of /proc/<pid>/stat. The command name is parenthesised
// and may itself contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(text string) (cpuMs float64, err error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", text)
	}
	fields := strings.Fields(text[end+1:])
	// After the command: state is field 3 of the man page, so utime (14)
	// and stime (15) are at offsets 11 and 12 here.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) * 1000 / clockTick, nil
}

// parseProcStatus extracts VmHWM and VmRSS (in MB) from the text of
// /proc/<pid>/status.
func parseProcStatus(text string) (hwmMB, rssMB float64, err error) {
	found := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || (key != "VmHWM" && key != "VmRSS") {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, 0, fmt.Errorf("proc status: unexpected %s line %q", key, sc.Text())
		}
		kb, perr := strconv.ParseFloat(f[0], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("proc status %s: %w", key, perr)
		}
		if key == "VmHWM" {
			hwmMB = kb / 1024
		} else {
			rssMB = kb / 1024
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("proc status: VmHWM/VmRSS not both present")
	}
	return hwmMB, rssMB, nil
}

func procCPUMs(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func procMem(pid int) (hwmMB, rssMB float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStatus(string(data))
}

// metricSet is one scrape of a Prometheus text endpoint: series (name
// plus its label block, verbatim) to value.
type metricSet map[string]float64

// parseMetrics reads Prometheus text exposition. Comment lines, exemplars
// after " # " and timestamps are ignored.
func parseMetrics(r io.Reader) (metricSet, error) {
	out := metricSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The series ends at the closing brace if it has labels (label
		// values may contain spaces), else at the first space.
		cut := strings.IndexByte(line, ' ')
		if b := strings.LastIndexByte(line, '}'); b >= 0 {
			cut = b + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] += v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose label block contains
// all the given `key="value"` fragments.
func (m metricSet) sum(name string, labels ...string) float64 {
	total := 0.0
series:
	for series, v := range m {
		fam, block, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(block, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

func scrapeMetrics(client *http.Client, base string) (metricSet, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s answered %s", base, resp.Status)
	}
	return parseMetrics(bytes.NewReader(body))
}

// dirBytes sums the sizes of the regular files under dir; byName holds
// each file's size under its base name (e.g. "index.wal").
func dirBytes(dir string) (total int64, byName map[string]int64, err error) {
	byName = map[string]int64{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		total += info.Size()
		byName[d.Name()] += info.Size()
		return nil
	})
	return total, byName, err
}
