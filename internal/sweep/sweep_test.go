package sweep

import (
	"errors"
	"sync/atomic"
	"testing"

	"capri/internal/compile"
	"capri/internal/workload"
)

func TestRunVisitsEveryUnit(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 7, 64} {
		const n = 37
		var hits [n]int32
		err := Run(jobs, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: unit %d ran %d times", jobs, i, h)
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	wantErr := errors.New("unit 5 failed")
	var ran int32
	err := Run(4, 20, func(i int) error {
		atomic.AddInt32(&ran, 1)
		switch i {
		case 5:
			return wantErr
		case 11:
			return errors.New("unit 11 failed")
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want the lowest-indexed failure", err)
	}
	// Failures never cancel the sweep: every unit still runs.
	if ran != 20 {
		t.Fatalf("ran %d of 20 units", ran)
	}
}

func TestRunZeroUnits(t *testing.T) {
	if err := Run(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestGridOrder(t *testing.T) {
	benches := workload.All()[:2]
	levels := []compile.Level{compile.LevelRegion, compile.LevelLICM}
	ths := []int{64, 256}
	units := Grid(benches, levels, ths)
	if len(units) != 8 {
		t.Fatalf("len = %d", len(units))
	}
	// Benchmark-major, then level, then threshold — the sequential loop order.
	u := units[1]
	if u.Bench.Name != benches[0].Name || u.Level != compile.LevelRegion || u.Threshold != 256 {
		t.Fatalf("units[1] = {%s %v %d}", u.Bench.Name, u.Level, u.Threshold)
	}
	if units[4].Bench.Name != benches[1].Name {
		t.Fatalf("units[4] = %+v", units[4])
	}
}
