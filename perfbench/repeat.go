package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// repeatMain runs each workload (or only the named one) k times, each
// run a fresh process of this binary with its own seed, and prints every
// metric's median, quartiles and spread (the interquartile distance as a
// share of the median) next to the metric's bound, plus the failed share
// and the service workload's per-region choices across the runs.
func repeatMain(w io.Writer, name string, seed uint64, seconds float64, trace bool, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := workloads
	if name != "" {
		def, err := lookupWorkload(name)
		if err != nil {
			return err
		}
		defs = []workloadDef{def}
	}
	table := endToEnd
	traceArg := "0"
	if trace {
		table, traceArg = perLayer, "1"
	}
	for _, def := range defs {
		values := map[string][]float64{}
		choices := map[string]int{}
		var shares []string
		for i := 0; i < k; i++ {
			s := strconv.FormatUint(seed+uint64(i), 10)
			cmd := exec.Command(self, "--workload", def.name, "--seed", s,
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", def.name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %s: last line: %w", def.name, s, err)
			}
			for _, l := range lines {
				if c, ok := strings.CutPrefix(l, "# region_choices="); ok {
					choices[c[:strings.LastIndex(c, " rounds=")]]++
				}
			}
			var row bytes.Buffer
			for _, d := range table {
				v := res.Metrics[d.name].Value
				values[d.name] = append(values[d.name], v)
				fmt.Fprintf(&row, " %s=%.4g", d.name, v)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Fprintf(w, "%s seed=%s correct=%t failed=%d/%d%s\n", def.name, s, res.Correct, res.Failed, res.Attempted, row.String())
		}
		fmt.Fprintf(w, "%s: %d runs, failed shares %s\n", def.name, k, strings.Join(shares, " "))
		fmt.Fprintf(w, "  %-26s %12s %12s %12s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "spread<bound/3")
		for _, d := range table {
			vs := values[d.name]
			med := stats.Median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "-"
			if d.bound > 0 {
				verdict = strconv.FormatBool(spread < d.bound/3)
			}
			fmt.Fprintf(w, "  %-26s %12.5g %12.5g %12.5g %8.4f %6.2f %s\n", d.name, med, q1, q3, spread, d.bound, verdict)
		}
		for c, n := range choices {
			fmt.Fprintf(w, "  region choices %s: %d of %d runs\n", c, n, k)
		}
	}
	return nil
}
