package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Registry names are "workload/setup/metric" once runs scope themselves
// (obs.Observer.ForkRun); bare names come from unscoped
// registrations. The exposition splits each name at its last '/': the
// prefix becomes a run="workload/setup" label and the leaf is sanitized
// into a Prometheus metric name, so every run's series share one metric
// family and dashboards select runs by label.

// splitRun splits a flat registry name into its run label (possibly
// empty) and metric leaf.
func splitRun(name string) (run, metric string) {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// sanitizeMetric rewrites a registry leaf into the Prometheus name
// charset [a-zA-Z0-9_:], mapping every other rune to '_' and prefixing a
// leading digit.
func sanitizeMetric(leaf string) string {
	var sb strings.Builder
	for i, r := range leaf {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			sb.WriteRune(r)
		} else if r >= '0' && r <= '9' { // leading digit
			sb.WriteByte('_')
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// series is one labeled sample within a metric family.
type series struct {
	run   string
	value float64
}

// histSeries is one labeled histogram within a family.
type histSeries struct {
	run  string
	snap obs.HistogramSnapshot
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): scalars as untyped samples, histograms as cumulative
// _bucket/_sum/_count series with power-of-two le bounds. Families and
// runs are emitted sorted, so the output is deterministic for a quiesced
// registry.
func WriteProm(w io.Writer, reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	hists := reg.Histograms()

	// The flat snapshot view repeats each histogram as three scalars
	// (name.count/.sum/.mean); drop them here — the real histogram series
	// carry the same information under the same family name.
	flattened := make(map[string]bool, 3*len(hists))
	for name := range hists {
		flattened[name+".count"] = true
		flattened[name+".sum"] = true
		flattened[name+".mean"] = true
	}

	families := make(map[string][]series)
	for name, v := range snap {
		if flattened[name] {
			continue
		}
		run, leaf := splitRun(name)
		m := sanitizeMetric(leaf)
		families[m] = append(families[m], series{run: run, value: v})
	}
	histFamilies := make(map[string][]histSeries)
	for name, hs := range hists {
		run, leaf := splitRun(name)
		m := sanitizeMetric(leaf)
		histFamilies[m] = append(histFamilies[m], histSeries{run: run, snap: hs})
	}

	for _, fam := range sortedKeys(families) {
		if _, err := fmt.Fprintf(w, "# TYPE %s untyped\n", fam); err != nil {
			return err
		}
		ss := families[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].run < ss[j].run })
		for _, s := range ss {
			if _, err := fmt.Fprintf(w, "%s%s %v\n", fam, runLabel(s.run), s.value); err != nil {
				return err
			}
		}
	}
	for _, fam := range sortedKeys(histFamilies) {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fam); err != nil {
			return err
		}
		hs := histFamilies[fam]
		sort.Slice(hs, func(i, j int) bool { return hs[i].run < hs[j].run })
		for _, h := range hs {
			if err := writePromHist(w, fam, h.run, h.snap); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist emits one histogram's cumulative bucket series. Buckets
// past the highest non-empty one collapse into the +Inf bucket, keeping
// the 65-bucket scheme compact on the wire.
func writePromHist(w io.Writer, fam, run string, s obs.HistogramSnapshot) error {
	var cum uint64
	top := s.MaxBucket()
	for i := 0; i <= top && i < obs.HistBuckets-1; i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			fam, bucketLabels(run, fmt.Sprintf("%d", obs.HistBucketBound(i))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam, bucketLabels(run, "+Inf"), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", fam, runLabel(run), s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, runLabel(run), s.Count)
	return err
}

// runLabel renders the optional {run="..."} label set.
func runLabel(run string) string {
	if run == "" {
		return ""
	}
	return fmt.Sprintf(`{run=%q}`, escapeLabel(run))
}

// bucketLabels renders a bucket's label set: le plus the optional run.
func bucketLabels(run, le string) string {
	if run == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`{run=%q,le=%q}`, escapeLabel(run), le)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
