package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet holds one side's values: workload -> metric -> one value
// per run.
type resultSet map[string]map[string][]float64

// loadResults reads every record under path (a record file or a
// directory of them). End-to-end and per-layer records share one set:
// their metric names do not overlap.
func loadResults(path string) (resultSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	set := resultSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.Stamp.Workload == "" {
			continue
		}
		w := set[rec.Stamp.Workload]
		if w == nil {
			w = map[string][]float64{}
			set[rec.Stamp.Workload] = w
		}
		for name, m := range rec.Result.Metrics {
			w[name] = append(w[name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return set, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs, computed like Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// verdict classifies B against A for one end-to-end metric. worse is
// the relative change in the harmful direction.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := (mb - ma) / math.Abs(ma)
	if !lowerBetter {
		worse = -worse
	}
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	wins, losses, pairs := 0, 0, len(a)*len(b)
	for _, x := range b {
		for _, y := range a {
			if better(x, y) {
				wins++
			} else if better(y, x) {
				losses++
			}
		}
	}
	switch {
	case max(spread(a), spread(b)) > bound:
		if wins == pairs {
			return "improved"
		}
		if losses == pairs {
			return "worse"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spread(a) && 10*wins >= 9*pairs:
		return "improved"
	}
	return "unchanged"
}

// movers names the per-layer metrics of one workload whose medians
// moved most between the sets. With three or more runs a side, a move
// is scored against the larger interquartile distance, so a metric
// that is noisy anyway ranks below one that is steady and moved; with
// fewer it is scored by its relative change.
func movers(a, b map[string][]float64, e2e map[string]bool, top int) string {
	type move struct {
		name     string
		from, to float64
		score    float64
	}
	var ms []move
	for name, xa := range a {
		xb, ok := b[name]
		if !ok || e2e[name] {
			continue
		}
		qa1, ma, qa3 := quartiles(xa)
		qb1, mb, qb3 := quartiles(xb)
		if ma == mb {
			continue
		}
		score := 2 * math.Abs(mb-ma) / (math.Abs(ma) + math.Abs(mb))
		if len(xa) >= 3 && len(xb) >= 3 {
			score = math.Abs(mb-ma) / math.Max(qa3-qa1, qb3-qb1)
		}
		ms = append(ms, move{name, ma, mb, score})
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].score != ms[j].score {
			return ms[i].score > ms[j].score
		}
		return ms[i].name < ms[j].name
	})
	var parts []string
	for i := 0; i < len(ms) && i < top; i++ {
		parts = append(parts, fmt.Sprintf("%s %.4g→%.4g", ms[i].name, ms[i].from, ms[i].to))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// runCompare prints, for every workload and end-to-end metric in both
// sets, the medians, spreads and verdict against BENCHMARK.json's
// bound, beside the per-layer metrics that moved most.
func runCompare(out io.Writer, specPath, pathA, pathB string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	setA, err := loadResults(pathA)
	if err != nil {
		return err
	}
	setB, err := loadResults(pathB)
	if err != nil {
		return err
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	var names []string
	for w := range setA {
		if setB[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("the two sets share no workload")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tchange\tspread A\tspread B\tbound\tverdict\tper-layer moved most")
	for _, w := range names {
		a, bb := setA[w], setB[w]
		moved := movers(a, bb, e2e, 3)
		for _, m := range spec.EndToEnd {
			xa, xb := a[m.Name], bb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t%s\n",
				w, m.Name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*spread(xa), 100*spread(xb),
				100*m.Bound, verdict(xa, xb, m.Better == "lower", m.Bound), moved)
		}
	}
	return tw.Flush()
}
