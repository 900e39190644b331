package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// expectation is what a recorded seed's scenario must reproduce: the
// virtual makespan (exact, as Go formats the float64), the SHA-256 of
// its SaveTrace bytes (of every artifact, for the campaign grid), and
// the codes of its Diagnose findings in order.
type expectation struct {
	Makespan    string   `json:"makespan,omitempty"`
	TraceSHA256 string   `json:"trace_sha256"`
	Findings    []string `json:"findings,omitempty"`
}

func (want expectation) compare(got expectation) error {
	switch {
	case got.Makespan != want.Makespan:
		return fmt.Errorf("makespan %s, recorded %s", got.Makespan, want.Makespan)
	case got.TraceSHA256 != want.TraceSHA256:
		return fmt.Errorf("trace sha256 %.12s, recorded %.12s", got.TraceSHA256, want.TraceSHA256)
	case !slices.Equal(got.Findings, want.Findings):
		return fmt.Errorf("findings %v, recorded %v", got.Findings, want.Findings)
	}
	return nil
}

// expectFile maps workload -> seed -> scenario -> expectation.
type expectFile map[string]map[string]map[string]expectation

// loadExpected reads the recorded outputs of one workload and seed; it
// returns nil for a seed that was not recorded.
func loadExpected(workload string, seed int64) (map[string]expectation, error) {
	b, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, err
	}
	var f expectFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return f[workload][strconv.FormatInt(seed, 10)], nil
}

// record runs one untraced iteration of every workload for each seed
// in [lo, hi] and writes their outputs to expectedPath.
func record(lo, hi int64) error {
	f := expectFile{}
	for _, w := range workloads {
		f[w.name] = map[string]map[string]expectation{}
		for seed := lo; seed <= hi; seed++ {
			store := filepath.Join(outDir, fmt.Sprintf("record-%s-%d", w.name, seed))
			r, err := w.prepare(seed, nil, store)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			// Recording times nothing; the meter's scale is arbitrary.
			v := r.iterate(&tracer{}, &meter{last: refSample{refPassSeconds, refPassSeconds}}, false)()
			os.RemoveAll(store)
			if len(v.failures) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, seed, v.failures[0])
			}
			f[w.name][strconv.FormatInt(seed, 10)] = v.observed
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w.name, seed)
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(b, '\n'), 0o644)
}
