package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// outputCheck is the verdict of one output check.
type outputCheck struct {
	name string
	err  error
}

// checkOutputs checks a run's rendered CSVs (file base name → bytes)
// against the committed results under resultsDir. At the committed draw
// (seed "") every CSV must be byte-identical to its committed copy. At the
// seeds of the committed seed-sensitivity table, the headline's ITTAGE and
// BLBP means must match that table's row. Any other seed has no committed
// reference; its outputs are only digested (see outputDigest).
func checkOutputs(resultsDir, seed string, files map[string][]byte) []outputCheck {
	var checks []outputCheck
	switch {
	case seed == "":
		for _, name := range sortedKeys(files) {
			checks = append(checks, outputCheck{name: name + ".csv", err: sameAsCommitted(resultsDir, name, files[name])})
		}
	case isSeedsRow(seed) && files["overall"] != nil:
		checks = append(checks, outputCheck{name: "seeds.csv row " + seed, err: matchSeedsRow(resultsDir, seed, files["overall"])})
	}
	return checks
}

// isSeedsRow reports whether results/seeds.csv has a row for the seed.
func isSeedsRow(seed string) bool { return seed == "a" || seed == "b" || seed == "c" }

func sameAsCommitted(resultsDir, name string, got []byte) error {
	want, err := os.ReadFile(filepath.Join(resultsDir, name+".csv"))
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s.csv differs from the committed copy at byte %d (got %d bytes, want %d)", name, i, len(got), len(want))
}

// matchSeedsRow compares the overall table's ITTAGE and BLBP means with
// the committed seed-sensitivity row of the same draw. Both tables print
// the means with four decimals, so the cells must be equal as text.
func matchSeedsRow(resultsDir, seed string, overall []byte) error {
	seeds, err := os.ReadFile(filepath.Join(resultsDir, "seeds.csv"))
	if err != nil {
		return err
	}
	rows, err := readCSV(seeds)
	if err != nil {
		return fmt.Errorf("seeds.csv: %w", err)
	}
	means, err := readCSV(overall)
	if err != nil {
		return fmt.Errorf("overall.csv: %w", err)
	}
	got := map[string]string{}
	for _, r := range means[1:] {
		if len(r) > 1 {
			got[r[0]] = r[1]
		}
	}
	for _, r := range rows[1:] {
		if len(r) < 3 || r[0] != seed {
			continue
		}
		if got["ittage"] != r[1] || got["blbp"] != r[2] {
			return fmt.Errorf("draw %q: overall.csv means ittage %s, blbp %s; seeds.csv has %s, %s", seed, got["ittage"], got["blbp"], r[1], r[2])
		}
		return nil
	}
	return fmt.Errorf("seeds.csv has no row for draw %q", seed)
}

// checkMeans compares suite-mean MPKIs computed by the layer re-drive with
// the "mean MPKI" column of a rendered CSV, which prints them with four
// decimals. A row named "<predictor> (reference)" is the predictor's row.
func checkMeans(name string, csvData []byte, means map[string]float64) error {
	rows, err := readCSV(csvData)
	if err != nil {
		return fmt.Errorf("%s.csv: %w", name, err)
	}
	col := -1
	for i, h := range rows[0] {
		if h == "mean MPKI" {
			col = i
		}
	}
	if col < 0 {
		return nil
	}
	for _, r := range rows[1:] {
		if len(r) <= col || r[0] == "" {
			continue
		}
		pred := strings.TrimSuffix(r[0], " (reference)")
		want, ok := means[pred]
		if !ok {
			return fmt.Errorf("%s.csv row %q: the re-drive simulated no such predictor", name, r[0])
		}
		got, err := strconv.ParseFloat(r[col], 64)
		if err != nil {
			return fmt.Errorf("%s.csv row %q: %w", name, r[0], err)
		}
		if math.Abs(got-want) > 0.5e-4+1e-12 {
			return fmt.Errorf("%s.csv row %q: mean MPKI %s, the layer re-drive gives %.6f", name, r[0], r[col], want)
		}
	}
	return nil
}

func readCSV(data []byte) ([][]string, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty table")
	}
	return rows, nil
}

// outputDigest is a SHA-256 over the CSVs in name order. Every rep of one
// run simulates the same inputs in a fresh process, so every rep must
// produce the same digest.
func outputDigest(files map[string][]byte) string {
	h := sha256.New()
	for _, name := range sortedKeys(files) {
		fmt.Fprintf(h, "%s %d\n", name, len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
