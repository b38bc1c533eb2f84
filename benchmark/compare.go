package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series collects one metric's values per workload, in file order.
func series(recs []record) map[string]map[string][]float64 {
	s := make(map[string]map[string][]float64)
	for _, r := range recs {
		for k, v := range r.Metrics {
			if s[r.Workload] == nil {
				s[r.Workload] = make(map[string][]float64)
			}
			s[r.Workload][k] = append(s[r.Workload][k], v)
		}
	}
	return s
}

// compareFiles prints, per (metric, workload) present in both files, each
// side's median and quartiles, the change of the medians and a verdict.
// End-to-end metrics get verdict's ruling against their bound; per-layer
// metrics have no bound, so only their simulated outputs are judged, as
// identical or not. It reports whether any end-to-end verdict is worse.
func compareFiles(basePath, newPath string, w io.Writer) (bool, error) {
	baseRecs, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	base, cur := series(baseRecs), series(newRecs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tverdict")
	anyWorse := false
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			for _, spec := range workloads {
				b, n := base[spec.name][d.Name], cur[spec.name][d.Name]
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				v := "-"
				switch {
				case d.Kind == "":
					v = verdict(b, n, d.Better == "lower", d.Bound)
					anyWorse = anyWorse || v == verdictWorse
				case d.Kind == "virtual":
					v = virtualVerdict(baseRecs, newRecs, spec.name, d.Name)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", d.Name, spec.name, summary3(b), summary3(n), change(b, n), v)
			}
		}
	}
	return anyWorse, tw.Flush()
}

// virtualVerdict compares a simulated output seed by seed: the simulator
// is deterministic, so runs of one seed must agree exactly, across the
// two files and within each.
func virtualVerdict(baseRecs, newRecs []record, workload, metric string) string {
	bySeed := make(map[uint64]float64)
	for _, recs := range [][]record{baseRecs, newRecs} {
		for _, r := range recs {
			v, ok := r.Metrics[metric]
			if !ok || r.Workload != workload {
				continue
			}
			if prev, seen := bySeed[r.Seed]; seen && prev != v {
				return "differs"
			}
			bySeed[r.Seed] = v
		}
	}
	return "identical"
}

func summary3(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

func change(b, n []float64) string {
	bm := median(b)
	if bm == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(median(n)-bm)/bm)
}
