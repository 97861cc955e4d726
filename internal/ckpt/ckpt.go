// Package ckpt is the durable checkpoint subsystem: portable binary
// serialization of in-flight machine snapshots (core.Snapshot, XIMD or
// lockstep VLIW, plus the injector's retry attempt), persisted one file
// per job under an -archive directory's ckpt/ subdirectory.
//
// The determinism contract makes a checkpoint sufficient: a run is a
// pure function of (program digest, seed, inject spec), so a snapshot
// at any cycle boundary — architectural state, statistics, memory,
// partition tracker, injector attempt — is everything a fresh process
// needs to continue the run to a terminal result document
// byte-identical to an uninterrupted run's. Fault injection included:
// transient draws are keyed on (seed, attempt, cycle, FU, address),
// all of which the checkpoint restores.
//
// File format: a sequence of frames, each
//
//	[4-byte big-endian payload length][4-byte big-endian IEEE CRC32
//	of the payload][payload]
//
// — the same framing as archive.log, so the crash story is the same:
// appends fsync, a crash can only leave a torn tail, and opening scans
// the valid prefix and uses the LAST valid frame (the newest complete
// checkpoint), discarding the torn tail. Payloads carry a magic and a
// version ahead of the snapshot bytes, so format evolution fails
// decode cleanly instead of restoring garbage. Decoding arbitrary
// bytes never panics (FuzzCheckpointDecode).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"ximd/internal/core"
	"ximd/internal/vliw"
	"ximd/internal/wire"
)

// Format constants. Version bumps whenever any layer's encoding
// changes shape; old files then fail decode and the caller falls back
// to a cold rerun — the safe direction for a cache of resumable work.
const (
	// Magic is the first four payload bytes of every checkpoint.
	Magic = "XCKP"
	// Version is the current payload format version.
	Version = 1
)

// frameHeaderLen is the byte length of the length+CRC frame header.
const frameHeaderLen = 8

// maxPayloadBytes bounds one frame's payload; a length prefix beyond
// it is treated as corruption, not an allocation request. Checkpoints
// carry sparse memory images, so real payloads sit far below this.
const maxPayloadBytes = 256 << 20

// Arch tags of the encoded snapshot.
const (
	archTagXIMD = 1
	archTagVLIW = 2
)

// Checkpoint is one resumable position of one run: the machine
// snapshot (exactly one of Ximd/Vliw set), the cycle it was taken at,
// the injector's retry attempt, and an opaque binding key.
type Checkpoint struct {
	// Arch is "ximd" or "vliw", matching runner.Arch.
	Arch string
	// Key is an opaque binding string chosen by the writer (the service
	// uses the job's (program digest, seed, inject, ...) identity). A
	// reader that finds a different key holds a checkpoint of some other
	// run and must cold-rerun instead of restoring it.
	Key string
	// Cycle is the machine cycle the snapshot was taken at.
	Cycle uint64
	// Attempt is the injector's retry attempt at snapshot time.
	Attempt uint64
	// Ximd / Vliw is the architectural snapshot; exactly one is set. A
	// Vliw snapshot is a lockstep machine's and encodes in the VLIW
	// layout (vliw.EncodeSnapshot).
	Ximd *core.Snapshot
	Vliw *core.Snapshot
}

// Encode serializes the checkpoint into one frame payload.
func (c *Checkpoint) Encode() ([]byte, error) {
	w := &wire.Writer{}
	w.String(Magic)
	w.U16(Version)
	w.String(c.Arch)
	w.String(c.Key)
	w.U64(c.Cycle)
	w.U64(c.Attempt)
	switch {
	case c.Ximd != nil && c.Vliw == nil:
		w.U8(archTagXIMD)
		if err := c.Ximd.Encode(w); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	case c.Vliw != nil && c.Ximd == nil:
		w.U8(archTagVLIW)
		if err := vliw.EncodeSnapshot(w, c.Vliw); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	default:
		return nil, fmt.Errorf("ckpt: checkpoint must carry exactly one snapshot")
	}
	return w.Bytes(), nil
}

// Decode parses one frame payload back into a Checkpoint. It never
// panics on arbitrary input; anything structurally wrong fails with an
// error.
func Decode(payload []byte) (*Checkpoint, error) {
	r := wire.NewReader(payload)
	if m := r.String(); m != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", m)
	}
	if v := r.U16(); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d (want %d)", v, Version)
	}
	c := &Checkpoint{
		Arch:    r.String(),
		Key:     r.String(),
		Cycle:   r.U64(),
		Attempt: r.U64(),
	}
	tag := r.U8()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	switch tag {
	case archTagXIMD:
		s, err := core.DecodeSnapshot(r)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		c.Ximd = s
	case archTagVLIW:
		s, err := vliw.DecodeSnapshot(r)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		c.Vliw = s
	default:
		return nil, fmt.Errorf("ckpt: unknown snapshot tag %d", tag)
	}
	if rem := r.Remaining(); rem != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after snapshot", rem)
	}
	return c, nil
}

// AppendFrame appends one length+CRC framed payload to dst. Shared by
// the checkpoint store and the service's job journal, which use the
// identical on-disk framing.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ScanFrames walks the frame sequence in data, returning the payloads
// of the valid prefix, the prefix's byte length, and whether a torn or
// corrupt tail was discarded. The scan stops at the first incomplete
// frame or CRC mismatch — exactly the archive.log recovery rule — so a
// crash mid-append costs at most the frame being written.
func ScanFrames(data []byte) (payloads [][]byte, valid int64, torn bool) {
	rest := data
	for len(rest) > 0 {
		if len(rest) < frameHeaderLen {
			return payloads, valid, true
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if n == 0 || n > maxPayloadBytes || uint64(len(rest)) < uint64(frameHeaderLen)+uint64(n) {
			return payloads, valid, true
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, valid, true
		}
		payloads = append(payloads, payload)
		valid += int64(frameHeaderLen + int(n))
		rest = rest[frameHeaderLen+int(n):]
	}
	return payloads, valid, false
}

// SyncDir fsyncs a directory, making a just-created, just-renamed, or
// just-removed directory entry itself durable. POSIX only promises
// that fsync of a file persists the file's bytes — the entry pointing
// at it lives in the parent directory and needs its own fsync, or a
// crash right after create can leave a durable file that no directory
// mentions. Both the checkpoint store and internal/archive call this
// after creating or renaming their files.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
