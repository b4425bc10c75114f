package main

import (
	"fmt"
	"os"
	"path/filepath"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/figures"
	"capri/internal/machine"
	"capri/internal/workload"
)

// runAudit executes every paper benchmark under the online Fig. 7 invariant
// auditor and reports per-benchmark verdicts. With recordDir != "", each run
// additionally writes a capri/run-record/v1 file <dir>/<bench>.json for
// offline inspection with capriinspect. Any violation makes the sweep fail.
func runAudit(scale, threshold int, recordDir string) error {
	if recordDir != "" {
		if err := os.MkdirAll(recordDir, 0o755); err != nil {
			return err
		}
	}
	h := figures.NewHarness(scale)
	var events uint64
	violations := 0
	for _, b := range workload.All() {
		var (
			flight *audit.FlightRecorder
			aud    *audit.Auditor
		)
		tap := func(m *machine.Machine) audit.Sink {
			flight = audit.NewFlightRecorder(audit.DefaultRecorderCap)
			aud = audit.NewAuditor(m.AuditOptions())
			aud.AttachRecorder(flight)
			return audit.Tee(flight, aud)
		}
		m, err := h.RunTapped(b, compile.LevelLICM, threshold, tap, false)
		if err != nil {
			return err
		}
		events += aud.EventsAudited()
		if recordDir != "" {
			fp := m.Program().Fingerprint()
			rr, err := audit.NewRunRecordFull(flight, aud, b.Name,
				fmt.Sprintf("%x", fp[:]), m.Config(), m.Stats())
			if err != nil {
				return err
			}
			if err := rr.WriteFile(filepath.Join(recordDir, b.Name+".json")); err != nil {
				return err
			}
		}
		if err := aud.Err(); err != nil {
			violations++
			fmt.Printf("%-18s FAIL after %d events\n%v\n", b.Name, aud.EventsAudited(), err)
			continue
		}
		fmt.Printf("%-18s ok   %8d provenance events\n", b.Name, aud.EventsAudited())
	}
	fmt.Printf("\naudited %d benchmarks, %d provenance events total\n", len(workload.All()), events)
	if violations > 0 {
		return fmt.Errorf("capribench: %d benchmarks violated Fig. 7 invariants", violations)
	}
	return nil
}
