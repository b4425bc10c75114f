package image

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

// makeCrashImage runs a generated program to a crash point and returns both
// the image and the golden outputs of a crash-free run.
func makeCrashImage(t *testing.T, seed uint64, crashAt uint64) (*machine.CrashImage, [][]uint64) {
	t.Helper()
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	p := progen.Generate(seed, gcfg)
	res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threshold = 32
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20

	g, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	var golden [][]uint64
	for th := 0; th < p.NumThreads(); th++ {
		golden = append(golden, g.Output(th))
	}

	m, _ := machine.New(res.Program, cfg)
	if err := m.RunUntil(crashAt); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Skip("program finished before crash point")
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	return img, golden
}

func TestRoundTripInMemory(t *testing.T) {
	img, golden := makeCrashImage(t, 7, 400)

	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	img2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if img2.Seq != img.Seq {
		t.Errorf("seq %d != %d", img2.Seq, img.Seq)
	}
	if !reflect.DeepEqual(img2.Records, img.Records) {
		t.Error("records differ after round trip")
	}
	if !reflect.DeepEqual(img2.Streams, img.Streams) {
		t.Error("streams differ after round trip")
	}
	if !reflect.DeepEqual(img2.NVM.Snapshot(), img.NVM.Snapshot()) {
		t.Error("NVM image differs after round trip")
	}

	// Recovery from the deserialized image must reach the golden state.
	r, _, err := machine.Recover(img2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for th := range golden {
		if !reflect.DeepEqual(r.Output(th), golden[th]) {
			t.Errorf("thread %d: output %v, golden %v", th, r.Output(th), golden[th])
		}
	}
}

// TestSerializationDeterministic: serializing one crash image twice — and
// serializing the images of two identical runs — must produce byte-identical
// files. This pins down every ordering decision in the pipeline: NVM.Entries
// is sorted by address, JSON map keys are sorted, and gzip carries no
// timestamp. Without it, content-addressed image storage and golden-file
// tests would see spurious diffs (the seed's map-iteration Entries order made
// exactly that happen).
func TestSerializationDeterministic(t *testing.T) {
	img, _ := makeCrashImage(t, 7, 400)

	var a, b bytes.Buffer
	if err := Write(&a, img); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serializing the same image twice produced different bytes")
	}

	// A second, independent run crashed at the same point must serialize to
	// the same bytes too (the simulator is deterministic; the image format
	// must not launder that determinism away).
	img2, _ := makeCrashImage(t, 7, 400)
	var c bytes.Buffer
	if err := Write(&c, img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("identical runs serialized to different bytes")
	}
}

func TestSaveLoadFile(t *testing.T) {
	img, golden := makeCrashImage(t, 11, 300)
	path := filepath.Join(t.TempDir(), "crash.img")
	if err := Save(path, img); err != nil {
		t.Fatal(err)
	}
	img2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := machine.Recover(img2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for th := range golden {
		if !reflect.DeepEqual(r.Output(th), golden[th]) {
			t.Errorf("thread %d diverged after file round trip", th)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	if _, err := Read(gzipped([]byte(`{"Version":999}`))); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestReadRejectsMissingProgram(t *testing.T) {
	if _, err := Read(gzipped([]byte(`{"Version":2}`))); err == nil || !strings.Contains(err.Error(), "missing embedded program") {
		t.Errorf("missing program: Read = %v, want missing embedded program", err)
	}
}

// TestReadRefusesVersion1 reads a real version-1 image, saved by the last
// toolchain that wrote that format, whose program carries recovery slices
// keyed by register in a map. Read must refuse it by version, never decode
// and recover it.
func TestReadRefusesVersion1(t *testing.T) {
	img, err := Read(gzipped(corpusEntry(t, "v1-slices")))
	if img != nil || err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 image: Read = %v, %v; want unsupported version 1", img, err)
	}
	if _, err := Read(gzipped(corpusEntry(t, "v2-slices"))); err != nil {
		t.Fatalf("version-2 image of the same run: %v", err)
	}
}

// TestReadRejectsUntrustedFields: an image is untrusted input, and each
// field below, accepted as is, sends Recover or the resumed run out of range
// or past the allocator's limits (before Read checked them, every case
// panicked). Each case mutates the committed version-2 image, which
// recovers by running recovery slices.
func TestReadRejectsUntrustedFields(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mutate     func(img *machine.CrashImage)
	}{
		{"record-blk-999", "outside the program", func(img *machine.CrashImage) {
			img.Records[0].Blk, img.Records[0].Region = 999, 9
		}},
		{"marker-blk-999", "outside the program", func(img *machine.CrashImage) { img.Streams[0][0].PCBlk = 999 }},
		{"marker-ckpt-reg-77", "checkpoints register 77", func(img *machine.CrashImage) { img.Streams[0][0].Ckpts[0].Reg = 77 }},
		{"block-def-rd-99", "register out of range", func(img *machine.CrashImage) { img.Prog.Funcs[0].Blocks[2].Insts[0].Rd = 99 }},
		{"slice-rd-200", "register out of range", func(img *machine.CrashImage) {
			img.Prog.Funcs[0].Blocks[1].RecoverySlices[0].Insts[0].Rd = 200
		}},
		{"cfg-l2size-huge", "beyond the simulator's bounds", func(img *machine.CrashImage) { img.Cfg.L2Size = 1 << 55 }},
		{"cfg-l1ways-huge", "beyond the simulator's bounds", func(img *machine.CrashImage) { img.Cfg.L1Ways = 1 << 50 }},
		{"cfg-dram-huge", "beyond the simulator's bounds", func(img *machine.CrashImage) { img.Cfg.DRAMSize = 1 << 63 }},
		{"cfg-frontend-huge", "beyond the simulator's bounds", func(img *machine.CrashImage) { img.Cfg.FrontEndEntries = 1 << 57 }},
		{"cfg-proxy-latency-huge", "beyond the simulator's bounds", func(img *machine.CrashImage) { img.Cfg.ProxyLatency = 1 << 40 }},
		{"extra-core", "for a 1-thread program", func(img *machine.CrashImage) {
			img.Records = append(img.Records, img.Records[0])
			img.Streams = append(img.Streams, nil)
			img.Outputs = append(img.Outputs, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, err := Read(gzipped(corpusEntry(t, "v2-slices")))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(img)
			var buf bytes.Buffer
			if err := Write(&buf, img); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read = %v, want an error containing %q", err, tc.want)
			}
			// The committed fuzz corpus entry of the same name is this case.
			if _, err := Read(gzipped(corpusEntry(t, tc.name))); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corpus entry: Read = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzImageRead feeds Read arbitrary image payloads: the JSON inside the gzip
// layer, so mutations reach the decoder and the checks behind it rather than
// the gzip checksum. An image Read accepts must recover and then run for a
// bounded number of steps to an error or a finished run, never a panic.
// The committed corpus holds a version-2 and a version-1 image, both of
// programs with recovery slices, and each TestReadRejectsUntrustedFields case.
func FuzzImageRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		img, err := Read(gzipped(payload))
		if err != nil {
			return
		}
		img.Cfg.MaxSteps = 20000
		m, _, err := machine.Recover(img)
		if err != nil {
			return
		}
		_ = m.Run()
	})
}

func TestCrashRecoverAcrossSerializationSweep(t *testing.T) {
	// The end-to-end property: for several crash points, serialize +
	// deserialize + recover + resume == golden.
	for _, crashAt := range []uint64{50, 250, 800, 2000} {
		img, golden := makeCrashImage(t, 21, crashAt)
		var buf bytes.Buffer
		if err := Write(&buf, img); err != nil {
			t.Fatal(err)
		}
		img2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r, rep, err := machine.Recover(img2)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if rep.ConflictingUndo != 0 {
			t.Errorf("crash@%d: conflicting undos", crashAt)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		for th := range golden {
			if !reflect.DeepEqual(r.Output(th), golden[th]) {
				t.Errorf("crash@%d thread %d: output %v, golden %v",
					crashAt, th, r.Output(th), golden[th])
			}
		}
	}
}

// gzipped wraps a JSON payload in the gzip layer Read expects, stored rather
// than compressed.
func gzipped(payload []byte) *bytes.Buffer {
	var buf bytes.Buffer
	gz, _ := gzip.NewWriterLevel(&buf, gzip.NoCompression)
	gz.Write(payload)
	gz.Close()
	return &buf
}

// corpusEntry returns the payload of a committed FuzzImageRead corpus entry.
func corpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzImageRead", name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(s)
}
