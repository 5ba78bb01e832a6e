package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const resultsDir = "../results"

func committed(t *testing.T, names ...string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(resultsDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	return files
}

func failures(checks []outputCheck) []string {
	var out []string
	for _, c := range checks {
		if c.err != nil {
			out = append(out, c.name)
		}
	}
	return out
}

func TestCheckOutputsAcceptsCommitted(t *testing.T) {
	files := committed(t, "overall", "fig8", "fig9", "fig10", "fig11")
	checks := checkOutputs(resultsDir, "", files)
	if len(checks) != 5 {
		t.Fatalf("%d checks, want one per CSV", len(checks))
	}
	if f := failures(checks); f != nil {
		t.Fatalf("committed CSVs failed %v", f)
	}
}

func TestCheckOutputsRejectsOneByte(t *testing.T) {
	for _, name := range []string{"overall", "fig8", "fig10"} {
		for _, at := range []int{0, 40, -1} {
			files := committed(t, "overall", "fig8", "fig9", "fig10", "fig11")
			b := append([]byte(nil), files[name]...)
			i := at
			if i < 0 {
				i = len(b) - 2
			}
			b[i] ^= 0x01
			files[name] = b
			f := failures(checkOutputs(resultsDir, "", files))
			if len(f) != 1 || f[0] != name+".csv" {
				t.Errorf("%s with byte %d changed: failed checks %v, want [%s.csv]", name, i, f, name)
			}
			if outputDigest(files) == outputDigest(committed(t, "overall", "fig8", "fig9", "fig10", "fig11")) {
				t.Errorf("%s with byte %d changed keeps the output digest", name, i)
			}
		}
	}
}

func TestCheckOutputsSeedsRow(t *testing.T) {
	overall := func(ittage, blbp string) map[string][]byte {
		return map[string][]byte{"overall": []byte("predictor,mean MPKI,vs ITTAGE %,cond accuracy\n" +
			"ittage," + ittage + ",0.0000,0.9927\nblbp," + blbp + ",3.5546,0.9927\n")}
	}
	if f := failures(checkOutputs(resultsDir, "a", overall("0.4918", "0.4744"))); f != nil {
		t.Fatalf("draw a's committed means failed %v", f)
	}
	checks := checkOutputs(resultsDir, "a", overall("0.4918", "0.4745"))
	if len(checks) != 1 || checks[0].err == nil {
		t.Fatalf("a BLBP mean one digit off passed: %v", checks)
	}
	if checks := checkOutputs(resultsDir, "7", overall("1", "2")); len(checks) != 0 {
		t.Fatalf("a draw without a committed reference got checks %v", checks)
	}
}

func TestCheckMeans(t *testing.T) {
	fig10 := committed(t, "fig10")["fig10"]
	means := map[string]float64{}
	rows, err := readCSV(fig10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		means[strings.TrimSuffix(r[0], " (reference)")] = v + 0.00004
	}
	if err := checkMeans("fig10", fig10, means); err != nil {
		t.Fatalf("means within rounding failed: %v", err)
	}
	means["ittage"] += 0.0002
	if err := checkMeans("fig10", fig10, means); err == nil || !strings.Contains(err.Error(), "ittage (reference)") {
		t.Fatalf("an ITTAGE mean 0.0002 off: got %v, want an error naming its row", err)
	}
	delete(means, "all-off")
	if err := checkMeans("fig10", fig10, means); err == nil {
		t.Fatal("a row the re-drive never simulated passed")
	}
}
