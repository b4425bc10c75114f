package capri

// The cross-commit pin: sha256 digests of what a fixed list of runs leaves
// behind — the crash image as image.Write serializes it, the flight
// recorder's event digest and the machine's Stats — compared against
// constants committed with the test. The dispatch-equivalence and
// trace-equivalence gates compare two modes of one build, so a change that
// shifts every mode alike (a proxy layout change, say) passes them; this pin
// compares the build against the commit the constants were generated at.
// When a change is meant to move simulated bytes, regenerate the constants
// and say so in the change's log.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"capri/internal/audit"
	"capri/internal/fault"
	"capri/internal/image"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/recovery"
	"capri/internal/workload"
)

// pinHangs are the contention targets' crash-point windows, by core count,
// where the resumed run never finishes (bench/README.md); no pinned crash
// point may fall inside one.
var pinHangs = map[int][2]uint64{4: {116, 127}, 8: {248, 271}}

// pinRun is one pinned run: a target crashed at each of its points, or run
// cleanly to completion when it has none.
type pinRun struct {
	target fault.Target
	points []uint64
}

// pinRuns lists the pinned runs. Points are instruction counts, each within
// the target's golden run.
var pinRuns = []pinRun{
	{target: fault.Target{Bench: "genome", Threshold: 64}, points: []uint64{2000, 9000}},
	{target: fault.Target{Bench: "radix", Threshold: 64}, points: []uint64{1500, 7000}},
	{target: fault.Target{Bench: "mt-queue-c8", Scale: 1, Threshold: 64, Cores: 8}, points: []uint64{200, 900}},
	{target: fault.Target{Bench: "mt-lockrec-c4", Scale: 1, Threshold: 64, Cores: 4}, points: []uint64{90, 600}},
	{target: fault.CorpusTargets(2, 64)[0], points: []uint64{40, 150}},
	{target: fault.CorpusTargets(2, 64)[1], points: []uint64{60, 200}},
	{target: fault.Target{Bench: "water-nsquared", Threshold: 64}},
}

// pinWant holds the committed digests, keyed "target@point" ("@0": the clean
// run). Each value is the image, flight-recorder and Stats digests.
var pinWant = map[string]string{
	"genome@2000":              "9b5f61b9a5cbd2a1 0e3af274682063bd bb348d2e7fd1ff9f",
	"genome@9000":              "f24f6bee1811a471 91104f9384dfb445 a899cd3fb1412c31",
	"radix@1500":               "09782ce99f211b07 f7c2879e4f5f7f3b dc8b3fc940ebfb64",
	"radix@7000":               "f81e7dd9ecb9bbf7 85340cfe828dea1b 042cba7154bba14a",
	"mt-queue-c8@200":          "a582d6c28c1b8a10 ba597a33780a6ad8 36b33eb53cb6a354",
	"mt-queue-c8@900":          "9e8e94b8b4579f6a fed5d2046294c311 bc3be50d732c0663",
	"mt-lockrec-c4@90":         "23f49ca1752e04b1 1cc4a573bb58c512 476c3afaffbdd3bb",
	"mt-lockrec-c4@600":        "1c7553ff66564521 28f10ae2b8a58365 00df7d15060123a0",
	"progen-1-s0@40":           "fc1994290d7a829b eec516c3497775c6 7811940c3751e442",
	"progen-1-s0@150":          "6176c5e023e76421 3d646a310a223c0d f776e9223e13a526",
	"progen-2654435770-s1@60":  "b83efd1ad8ab5c2a 82153633b2a775d4 df67c02fb6e002ae",
	"progen-2654435770-s1@200": "5d89b9ff742fc6fe 61861cf2dcf2b481 22730d1167170aa4",
	"water-nsquared@0":         "3cfb1cc89adc5e11 3914e1f9b21a3984 26f24e07470dddd7",
}

// TestCrossCommitPin runs every pinned run and compares its three digests
// with the committed ones.
func TestCrossCommitPin(t *testing.T) {
	for _, pr := range pinRuns {
		pg, cfg, err := pr.target.Build()
		if err != nil {
			t.Fatal(err)
		}
		name := pr.target.Name()
		if len(pr.points) == 0 {
			got := pinClean(t, pg, cfg)
			pinCheck(t, name+"@0", got)
			continue
		}
		g, err := recovery.RunGolden(pg, cfg)
		if err != nil {
			t.Fatalf("%s: golden: %v", name, err)
		}
		if b, err := workload.ByName(pr.target.Bench); err == nil && b.Check != nil {
			scale := max(pr.target.Scale, 1)
			g.Check = func(mem map[uint64]uint64) error { return b.Check(scale, mem) }
		}
		cfg.MaxSteps = 20 * g.Instret
		for _, at := range pr.points {
			if w, ok := pinHangs[pr.target.Cores]; ok && at >= w[0] && at <= w[1] {
				t.Fatalf("%s@%d falls in the known-hang window %v", name, at, w)
			}
			if at >= g.Instret {
				t.Fatalf("%s@%d is past the golden run's %d instructions", name, at, g.Instret)
			}
			pinCheck(t, fmt.Sprintf("%s@%d", name, at), pinCrash(t, pg, cfg, g, at))
		}
	}
}

// pinCheck compares one run's digests with the committed ones, printing the
// value to commit on a mismatch.
func pinCheck(t *testing.T, key, got string) {
	t.Helper()
	if want := pinWant[key]; got != want {
		t.Errorf("%s: digests changed\n got  %q\n want %q", key, got, want)
	}
}

// pinCrash crashes a fresh machine at at and digests its image, then runs the
// same point through the crash driver and digests its flight recorder and
// the resumed machine's Stats.
func pinCrash(t *testing.T, pg *prog.Program, cfg machine.Config, g *recovery.Golden, at uint64) string {
	t.Helper()
	m, err := machine.New(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	out := recovery.Run(pg, cfg, g, at, recovery.Faults{})
	if out.Err != nil || !out.Crashed {
		t.Fatalf("crash@%d: crashed=%v err=%v", at, out.Crashed, out.Err)
	}
	return pinDigests(t, img, out.Flight, out.Machine.Stats())
}

// pinClean runs the program to completion under a flight recorder and
// digests the finished machine's image, the recorder and Stats.
func pinClean(t *testing.T, pg *prog.Program, cfg machine.Config) string {
	t.Helper()
	m, err := machine.New(pg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flight := audit.NewFlightRecorder(audit.DefaultRecorderCap)
	m.SetTap(flight)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	return pinDigests(t, img, flight, st)
}

// pinDigests renders the image, flight-recorder and Stats digests.
func pinDigests(t *testing.T, img *machine.CrashImage, flight *audit.FlightRecorder, st machine.Stats) string {
	t.Helper()
	var buf bytes.Buffer
	if err := image.Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	ih := sha256.Sum256(buf.Bytes())
	fh := flight.Digest()
	sh := sha256.Sum256([]byte(fmt.Sprintf("%+v", st)))
	return hex.EncodeToString(ih[:8]) + " " + hex.EncodeToString(fh[:8]) + " " + hex.EncodeToString(sh[:8])
}
