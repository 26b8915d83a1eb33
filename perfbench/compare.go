package main

// --compare: summarize saved outputs of repeated runs side by side.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultSet is every run found in one saved output file.
type resultSet struct {
	Path     string
	Machines []machine
	Results  []result
}

// parseResultSet reads concatenated run outputs: each run contributes a
// {"machine": …} line and a result line.
func parseResultSet(path string, data []byte) (resultSet, error) {
	rs := resultSet{Path: path}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if json.Unmarshal(line, &probe) != nil {
			continue // not a JSON object line
		}
		if raw, ok := probe["machine"]; ok {
			var m machine
			if err := json.Unmarshal(raw, &m); err != nil {
				return rs, fmt.Errorf("%s: machine line: %w", path, err)
			}
			rs.Machines = append(rs.Machines, m)
			continue
		}
		if _, ok := probe["metrics"]; ok {
			var r result
			if err := json.Unmarshal(line, &r); err != nil {
				return rs, fmt.Errorf("%s: result line: %w", path, err)
			}
			rs.Results = append(rs.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Results) == 0 || len(rs.Machines) != len(rs.Results) {
		return rs, fmt.Errorf("%s: %d results with %d machine blocks; each run must carry one of each", path, len(rs.Results), len(rs.Machines))
	}
	return rs, nil
}

// checkSameBox refuses result sets whose machine blocks differ, within
// a set or across sets.
func checkSameBox(sets []resultSet) error {
	ref := sets[0].Machines[0]
	for _, s := range sets {
		for i, m := range s.Machines {
			if err := ref.sameBox(m); err != nil {
				return fmt.Errorf("%s run %d vs %s run 1: %w", s.Path, i+1, sets[0].Path, err)
			}
		}
	}
	return nil
}

func compare(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("--compare needs saved run outputs as arguments")
	}
	var sets []resultSet
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rs, err := parseResultSet(p, data)
		if err != nil {
			return err
		}
		sets = append(sets, rs)
	}
	if err := checkSameBox(sets); err != nil {
		return err
	}
	names := map[string]string{}
	for _, s := range sets {
		for _, r := range s.Results {
			for n, v := range r.Metrics {
				names[n] = v.Unit
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "%-34s %-14s %-24s %5s %8s %12s %8s %8s\n", "metric", "unit", "set", "runs", "failed", "median", "iqr/med", "vs set1")
	for _, n := range sorted {
		var base float64
		for k, s := range sets {
			var vals []float64
			failed := int64(0)
			for _, r := range s.Results {
				failed += r.Failed
				if v, ok := r.Metrics[n]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			med := medianOf(vals)
			sp := "-"
			if len(vals) >= 2 {
				if x, err := spread(vals); err == nil {
					sp = fmt.Sprintf("%.4f", x)
				}
			}
			rel := "-"
			if k == 0 {
				base = med
			} else if base != 0 {
				rel = fmt.Sprintf("%+.2f%%", 100*(med-base)/base)
			}
			fmt.Fprintf(w, "%-34s %-14s %-24s %5d %8d %12.6g %8s %8s\n", n, names[n], s.Path, len(vals), failed, med, sp, rel)
		}
	}
	return nil
}
