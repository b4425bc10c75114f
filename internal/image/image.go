// Package image serializes crash images to and from disk, so whole-system
// persistence spans process lifetimes: a run can "lose power" in one
// invocation (writing exactly the state the battery-backed hardware would
// preserve — NVM plus the proxy buffer contents), and a later invocation
// recovers from the file and resumes, as a rebooted machine would from its
// physical NVM. See `caprirun -image` and the examples/persistent demo.
//
// The format is versioned JSON wrapped in gzip; it embeds the compiled
// program so a recovering process needs nothing but the image file. This is
// format version 2: each block's recovery slices are a list sorted by
// register. Version 1 keyed them by register in a map; Read refuses it, and
// every other version, before decoding anything but the version number.
//
// An image file is untrusted input. Read refuses an embedded program that
// fails prog.Verify, a config that fails machine.Config.Validate, a core
// count other than the program's thread count, a resume PC outside the
// program, and a checkpoint of a register the machine does not have, so a
// recovered run can fail but never index out of range.
package image

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"capri/internal/isa"
	"capri/internal/machine"
	"capri/internal/mem"
	"capri/internal/prog"
	"capri/internal/proxy"
)

// Version identifies the on-disk format.
const Version = 2

// file is the serialized form of a machine.CrashImage.
type file struct {
	Version int
	Program *prog.Program
	Config  machine.Config
	Records []machine.CoreRecord
	Streams [][]proxy.Entry
	Outputs [][]uint64
	Seq     uint64
	NVM     []mem.WordEntry
}

// Write serializes the crash image to w.
func Write(w io.Writer, img *machine.CrashImage) error {
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	f := file{
		Version: Version,
		Program: img.Prog,
		Config:  img.Cfg,
		Records: img.Records,
		Streams: img.Streams,
		Outputs: img.Outputs,
		Seq:     img.Seq,
		NVM:     img.NVM.Entries(),
	}
	if err := enc.Encode(&f); err != nil {
		gz.Close()
		return fmt.Errorf("image: encode: %w", err)
	}
	return gz.Close()
}

// Read deserializes a crash image from r.
func Read(r io.Reader) (*machine.CrashImage, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	defer gz.Close()
	data, err := io.ReadAll(gz)
	if err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	var hdr struct{ Version int }
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, fmt.Errorf("image: decode: %w", err)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("image: unsupported version %d (have %d)", hdr.Version, Version)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("image: decode: %w", err)
	}
	if f.Program == nil {
		return nil, fmt.Errorf("image: missing embedded program")
	}
	if err := f.Program.Verify(); err != nil {
		return nil, fmt.Errorf("image: embedded program: %w", err)
	}
	if err := f.Config.Validate(); err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	if err := checkCores(&f); err != nil {
		return nil, err
	}
	return &machine.CrashImage{
		Prog:    f.Program,
		Cfg:     f.Config,
		Records: f.Records,
		Streams: f.Streams,
		Outputs: f.Outputs,
		Seq:     f.Seq,
		// A clone, like a harvested image's NVM: every page is marked
		// shared, so recoveries only read the image's table and any number
		// of them may run at once.
		NVM: mem.NVMFromEntries(f.NVM).Clone(),
	}, nil
}

// checkCores refuses per-core state that recovery would index the program or
// a register file with unchecked: a record, stream or output count other
// than the program's thread count, a record or commit marker whose resume PC
// names no instruction of the program, and a marker checkpoint of a register
// the machine does not have.
func checkCores(f *file) error {
	p := f.Program
	if n := p.NumThreads(); len(f.Records) != n || len(f.Streams) != n || len(f.Outputs) != n {
		return fmt.Errorf("image: %d records, %d streams and %d outputs for a %d-thread program",
			len(f.Records), len(f.Streams), len(f.Outputs), n)
	}
	for t, rec := range f.Records {
		if !validPC(p, rec.Fn, rec.Blk, rec.Idx) {
			return fmt.Errorf("image: core %d record resumes at f%d b%d i%d, outside the program", t, rec.Fn, rec.Blk, rec.Idx)
		}
	}
	for t, stream := range f.Streams {
		for i := range stream {
			e := &stream[i]
			if e.Kind == proxy.KindData {
				continue
			}
			if !validPC(p, e.PCFunc, e.PCBlk, e.PCIdx) {
				return fmt.Errorf("image: core %d entry %d resumes at f%d b%d i%d, outside the program", t, i, e.PCFunc, e.PCBlk, e.PCIdx)
			}
			for _, ck := range e.Ckpts {
				if !ck.Reg.Valid() {
					return fmt.Errorf("image: core %d entry %d checkpoints register %d (have %d)", t, i, ck.Reg, isa.NumRegs)
				}
			}
		}
	}
	return nil
}

// validPC reports whether (fn, blk, idx) names an instruction of p.
func validPC(p *prog.Program, fn, blk, idx int32) bool {
	if fn < 0 || int(fn) >= len(p.Funcs) {
		return false
	}
	f := p.Funcs[fn]
	return blk >= 0 && int(blk) < len(f.Blocks) && idx >= 0 && int(idx) < len(f.Blocks[blk].Insts)
}

// Save writes the crash image to a file (atomically via a temp rename).
func Save(path string, img *machine.CrashImage) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Write(f, img); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a crash image from a file.
func LoadFile(path string) (*machine.CrashImage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
