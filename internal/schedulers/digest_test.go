package schedulers

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/exact"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// digestGolden is the committed output of scheduleDigests.
const digestGolden = "testdata/digests.txt"

// exactDigestMaxTasks bounds the instances package exact joins the
// digest on, since its search is exponential.
const exactDigestMaxTasks = 8

// scheduleDigests schedules instances 0 and 1 of every Table II dataset
// at seeds 1 and 2 with every gated scheduler and, where the instance has
// at most exactDigestMaxTasks tasks, with BruteForce, SMT and exact's HEFT
// warm start (the schedule exact.Feasible returns for an unbounded
// deadline, before any search). Each instance runs as drawn and again
// with every fourth task's cost set to 0, the shape PISA's weight
// perturbations produce. It returns one line per schedule: dataset, seed,
// instance, zeroed (0/1), scheduler and the SHA-256 of every assignment's
// node, start bits and end bits in task order.
func scheduleDigests(t *testing.T) []string {
	t.Helper()
	var scheds []scheduler.Scheduler
	for _, n := range append(gatedNames(), "BruteForce", "SMT") {
		s, err := scheduler.New(n)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	var lines []string
	for _, name := range datasets.TableII {
		for seed := uint64(1); seed <= 2; seed++ {
			for zeroed := 0; zeroed <= 1; zeroed++ {
				insts, err := datasets.Dataset(name, 2, seed)
				if err != nil {
					t.Fatal(err)
				}
				for i, inst := range insts {
					if zeroed == 1 {
						for tk := 0; tk < len(inst.Graph.Tasks); tk += 4 {
							inst.Graph.Tasks[tk].Cost = 0
						}
					}
					small := inst.Graph.NumTasks() <= exactDigestMaxTasks
					for _, s := range scheds {
						if (s.Name() == "BruteForce" || s.Name() == "SMT") && !small {
							continue
						}
						if err := s.ScheduleScratch(inst, scr, &out); err != nil {
							t.Fatalf("%s on %s/%d/%d: %v", s.Name(), name, seed, i, err)
						}
						lines = append(lines, fmt.Sprintf("%s %d %d %d %s %x", name, seed, i, zeroed, s.Name(), digest(&out)))
					}
					if small {
						warm, ok, err := exact.Feasible(inst, math.Inf(1), exact.Options{})
						if err != nil || !ok {
							t.Fatalf("exact.Feasible on %s/%d/%d: ok=%v, %v", name, seed, i, ok, err)
						}
						lines = append(lines, fmt.Sprintf("%s %d %d %d exact.warmStart %x", name, seed, i, zeroed, digest(warm)))
					}
				}
			}
		}
	}
	return lines
}

// digest is the SHA-256 of every assignment's node, start bits and end
// bits in task order.
func digest(sch *schedule.Schedule) []byte {
	h := sha256.New()
	var word [8]byte
	for _, a := range sch.ByTask {
		for _, x := range [3]uint64{uint64(a.Node), math.Float64bits(a.Start), math.Float64bits(a.End)} {
			binary.LittleEndian.PutUint64(word[:], x)
			h.Write(word[:])
		}
	}
	return h.Sum(nil)
}

// scaleDigestGoldens are the committed outputs of scaleDigests, per tier.
var scaleDigestGoldens = map[string]string{
	"1k":  "testdata/scale_digests_1k.txt",
	"10k": "testdata/scale_digests_10k.txt",
}

// scaleSchedulers are the schedulers the 10k scale tier is pinned for:
// the ones the scale_schedule benchmark workload runs.
var scaleSchedulers = []string{"HEFT", "CPoP", "FCP", "FLB", "MCT", "MET", "OLB", "FastestNode"}

// scaleDigests schedules instance 0 of scale_layered_<tier> and
// scale_chains_<tier> at seeds 1 and 2 with every gated scheduler (the
// 1k tier) or with scaleSchedulers (the 10k tier), one line per schedule
// in scheduleDigests' format with zeroed always 0. Wide ready frontiers
// and long node timelines appear only at this scale.
func scaleDigests(t *testing.T, tier string) []string {
	t.Helper()
	names := gatedNames()
	if tier != "1k" {
		names = scaleSchedulers
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	var lines []string
	for _, family := range []string{"scale_layered_", "scale_chains_"} {
		for seed := uint64(1); seed <= 2; seed++ {
			insts, err := datasets.Dataset(family+tier, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				s, err := scheduler.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.ScheduleScratch(insts[0], scr, &out); err != nil {
					t.Fatalf("%s on %s%s/%d: %v", name, family, tier, seed, err)
				}
				lines = append(lines, fmt.Sprintf("%s%s %d 0 0 %s %x", family, tier, seed, name, digest(&out)))
			}
		}
	}
	return lines
}

// TestScaleDigestGolden holds the scale tier's schedules bit for bit to
// testdata/scale_digests_1k.txt, and with SCALE_BENCH_GATE set to
// testdata/scale_digests_10k.txt. The files were recorded before the FLB
// candidate memo, the frontier's bisection and the end-anchored
// insertion search landed, and no refactor edits them.
func TestScaleDigestGolden(t *testing.T) {
	tiers := []string{"1k"}
	if os.Getenv("SCALE_BENCH_GATE") != "" {
		tiers = append(tiers, "10k")
	}
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			compareGolden(t, scaleDigestGoldens[tier], scaleDigests(t, tier))
		})
	}
}

// TestScheduleDigestGolden holds every registered scheduler's schedules
// bit for bit to testdata/digests.txt. A change that moves a scheduler's
// output on purpose says so and re-records the file from scheduleDigests;
// a refactor never edits it.
func TestScheduleDigestGolden(t *testing.T) {
	compareGolden(t, digestGolden, scheduleDigests(t))
}

// compareGolden fails at the first line where got differs from the
// golden file at path.
func compareGolden(t *testing.T, path string, got []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range max(len(got), len(want)) {
		g, w := "<end>", "<end>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
