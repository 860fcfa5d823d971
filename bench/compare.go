package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: metric
// names, direction and regression bounds are defined there, once.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchmarkSpec, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	return &spec, json.Unmarshal(raw, &spec)
}

// Verdicts of one workload x metric cell.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges new against old for one metric. change is new's median
// relative to old's, signed so that positive is worse. A cell whose
// run-to-run spread (inter-quartile range over median, on either side) is
// wider than the bound cannot tell a regression from noise: it is
// unresolved, never unchanged.
func verdict(spec metricSpec, old, new summary) (v string, change float64) {
	if old.Median == 0 {
		return unresolved, 0
	}
	change = (new.Median - old.Median) / old.Median
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case max(old.spread(), new.spread()) > spec.Bound:
		return unresolved, change
	case change > spec.Bound:
		return regressed, change
	case change < -spec.Bound:
		return improved, change
	}
	return unchanged, change
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the per workload x end-to-end metric delta table of
// two record files and reports whether any cell regressed or any run of
// the new record failed. Every ratio is printed with its base.
func compareFiles(out io.Writer, oldPath, newPath string) (bad bool, err error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	oldRec, err := readRecord(oldPath)
	if err != nil {
		return false, err
	}
	newRec, err := readRecord(newPath)
	if err != nil {
		return false, err
	}
	return compareRecords(out, spec, oldRec, newRec), nil
}

func compareRecords(out io.Writer, spec *benchmarkSpec, oldRec, newRec *record) (bad bool) {
	fmt.Fprintf(out, "old: commit %s seed %d scale %g, %d hardware threads\n", oldRec.Commit, oldRec.Seed, oldRec.Scale, oldRec.Host.HardwareThreads)
	fmt.Fprintf(out, "new: commit %s seed %d scale %g, %d hardware threads\n", newRec.Commit, newRec.Seed, newRec.Scale, newRec.Host.HardwareThreads)
	fmt.Fprintf(out, "%-20s %-12s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		o, n := oldRec.Workloads[w.Name], newRec.Workloads[w.Name]
		if o == nil || n == nil || o.EndToEnd == nil || n.EndToEnd == nil {
			fmt.Fprintf(out, "%-20s missing from one record\n", w.Name)
			bad = true
			continue
		}
		if n.EndToEnd.Failed > 0 {
			fmt.Fprintf(out, "%-20s %d of %d runs failed in the new record\n", w.Name, n.EndToEnd.Failed, n.EndToEnd.Attempted)
			bad = true
		}
		for _, ms := range spec.EndToEnd {
			om, nm := o.EndToEnd.Metrics[ms.Name], n.EndToEnd.Metrics[ms.Name]
			v, change := verdict(ms, om, nm)
			if v == regressed {
				bad = true
			}
			fmt.Fprintf(out, "%-20s %-12s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				w.Name, ms.Name, om.Median, nm.Median, change*100, ms.Bound*100, max(om.spread(), nm.spread())*100, v)
		}
	}
	return bad
}
