package serialize

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"saga/internal/datasets"
)

// datasetGolden is the committed output of scaleDatasetDigests.
const datasetGolden = "testdata/scale_datasets.txt"

// scaleDatasetDigests returns, for instance 0 of scale_layered_<tier>
// and scale_chains_<tier> at seeds 1 and 2, one line: dataset, seed and
// the SHA-256 of MarshalInstance's bytes. Unlike the schedule digests,
// the bytes cover task names, dependency order and every weight.
func scaleDatasetDigests(t *testing.T, tier string) []string {
	t.Helper()
	var lines []string
	for _, family := range []string{"scale_layered_", "scale_chains_"} {
		for seed := uint64(1); seed <= 2; seed++ {
			insts, err := datasets.Dataset(family+tier, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := MarshalInstance(insts[0])
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s%s %d %x", family, tier, seed, sha256.Sum256(raw)))
		}
	}
	return lines
}

// TestScaleDatasetGolden holds the scale-tier generators bit for bit to
// testdata/scale_datasets.txt: the 1k tier always, the 10k tier with
// SCALE_BENCH_GATE set. A generator refactor never edits the file.
func TestScaleDatasetGolden(t *testing.T) {
	raw, err := os.ReadFile(datasetGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		want[datasetKey(line)] = line
	}
	tiers := []string{"1k"}
	if os.Getenv("SCALE_BENCH_GATE") != "" {
		tiers = append(tiers, "10k")
	}
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			for _, got := range scaleDatasetDigests(t, tier) {
				if w := want[datasetKey(got)]; got != w {
					t.Errorf("%s differs\n got: %s\nwant: %s", datasetGolden, got, w)
				}
			}
		})
	}
}

// datasetKey is a golden line's dataset and seed.
func datasetKey(line string) string {
	f := strings.Fields(line)
	return f[0] + " " + f[1]
}
