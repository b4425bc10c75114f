package machine

import (
	"reflect"
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
)

// sink records every delivered output value, surviving across machines the
// way a real external device would survive a power failure.
type sink struct {
	got [][]uint64 // per core
}

func newSink(cores int) *sink { return &sink{got: make([][]uint64, cores)} }

func (s *sink) Output(core int, val uint64) {
	s.got[core] = append(s.got[core], val)
}

// emitProgram emits every loop index — a stream of externally visible I/O.
func emitProgram(n int64) *prog.Program {
	bd := prog.NewBuilder("emitter")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(8, 0)
	f.MovI(9, n)
	f.MovI(10, int64(HeapBase))
	f.Br(header)
	f.SetBlock(header)
	f.BrIf(8, isa.CondGE, 9, exit, body)
	f.SetBlock(body)
	f.Emit(8)
	f.Store(10, 0, 8)
	f.AddI(8, 8, 1)
	f.Br(header)
	f.SetBlock(exit)
	f.Halt()
	bd.SetThreadEntries(f)
	return bd.Program()
}

func TestDeviceReceivesCommittedOutputInOrder(t *testing.T) {
	cp := compileFor(t, emitProgram(50), 16)
	m, _ := New(cp, testConfig(16))
	d := newSink(1)
	m.AttachOutputDevice(d)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 50)
	for i := range want {
		want[i] = uint64(i)
	}
	if !reflect.DeepEqual(d.got[0], want) {
		t.Errorf("device stream = %v", d.got[0])
	}
	// The durable tape agrees with the device.
	if !reflect.DeepEqual(m.Output(0), want) {
		t.Errorf("tape = %v", m.Output(0))
	}
}

// TestDeviceExactlyOnceAcrossCrashes is the §3.3 I/O guarantee: the external
// device, which is never rolled back, sees every output value exactly once
// and in order, no matter where the power fails.
func TestDeviceExactlyOnceAcrossCrashes(t *testing.T) {
	cp := compileFor(t, emitProgram(60), 8)

	golden := make([]uint64, 60)
	for i := range golden {
		golden[i] = uint64(i)
	}

	mg, _ := New(cp, testConfig(8))
	if err := mg.Run(); err != nil {
		t.Fatal(err)
	}
	total := mg.Instret()

	step := total/41 + 1
	for crashAt := uint64(1); crashAt < total; crashAt += step {
		d := newSink(1) // the device persists across the "reboot"
		m, _ := New(cp, testConfig(8))
		m.AttachOutputDevice(d)
		if err := m.RunUntil(crashAt); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			break
		}
		img, err := m.Crash()
		if err != nil {
			t.Fatal(err)
		}
		// The same device instance is attached to the recovered machine
		// BEFORE the protocol replays committed-but-undrained regions.
		r, _, err := Recover(img, d)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d resume: %v", crashAt, err)
		}
		if !reflect.DeepEqual(d.got[0], golden) {
			t.Fatalf("crash@%d: device saw %v (len %d), want exactly-once 0..59",
				crashAt, d.got[0], len(d.got[0]))
		}
	}
}

func TestDeviceNotCalledForUncommittedEmits(t *testing.T) {
	cp := compileFor(t, emitProgram(50), 16)
	m, _ := New(cp, testConfig(16))
	d := newSink(1)
	m.AttachOutputDevice(d)
	// Stop early: emits of the in-flight region must not have reached the
	// device (only committed, phase-2-complete ones may).
	if err := m.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	tape := m.Output(0)
	if len(d.got[0]) != len(tape) {
		t.Errorf("device has %d values, durable tape %d — device ahead of commit",
			len(d.got[0]), len(tape))
	}
}
