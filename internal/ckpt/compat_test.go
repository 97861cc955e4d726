package ckpt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ximd/internal/ckpt"
	"ximd/internal/core"
	"ximd/internal/hostcfg"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/runner"
	"ximd/internal/wire"
)

// Wire-format compatibility. testdata/longloop_{ximd,vliw}.ckpt are
// checkpoint files written by the fully backed 4 MB memory image that
// preceded the backed-prefix one: testdata/longloop.xasm run with the
// spec below, checkpointed every 60000 cycles, first checkpoint kept,
// Key "longloop". Today's code must read them, re-encode them to the
// same bytes, and resume them to exactly what an uninterrupted run
// produces.

// longloopSpec is the spec the testdata checkpoints were taken under.
// The memory pokes give the snapshot nonzero segments on both sides of
// the backed prefix's first growth.
func longloopSpec() runner.Spec {
	return runner.Spec{MaxCycles: 100000, MemPokes: []hostcfg.MemPoke{
		{Base: 100, Vals: []int32{1, 2, 3, -4}},
		{Base: 600000, Vals: []int32{7, 0, 9}},
	}}
}

// resultBytes renders a run's outcome — the full result document with
// peeks over the poked ranges, and the error — for byte comparison.
func resultBytes(t *testing.T, res runner.Result, err error) []byte {
	t.Helper()
	peeks := []hostcfg.MemPeek{{Base: 100, N: 4}, {Base: 300, N: 1}, {Base: 600000, N: 3}}
	doc, jerr := json.Marshal(runner.NewResultDoc(res, peeks, true))
	if jerr != nil {
		t.Fatal(jerr)
	}
	return append(doc, fmt.Sprintf("\nerr: %v", err)...)
}

func TestCheckpointFormatCompat(t *testing.T) {
	src, err := os.ReadFile("../../testdata/longloop.xasm")
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []runner.Arch{runner.ArchXIMD, runner.ArchVLIW} {
		t.Run(string(arch), func(t *testing.T) {
			file, err := os.ReadFile("testdata/longloop_" + string(arch) + ".ckpt")
			if err != nil {
				t.Fatal(err)
			}
			payloads, _, torn := ckpt.ScanFrames(file)
			if torn || len(payloads) != 1 {
				t.Fatalf("scan: %d frames, torn %v", len(payloads), torn)
			}
			c, err := ckpt.Decode(payloads[0])
			if err != nil {
				t.Fatal(err)
			}
			if c.Arch != string(arch) || c.Key != "longloop" || c.Cycle != 60000 {
				t.Fatalf("header = %s/%s/%d", c.Arch, c.Key, c.Cycle)
			}
			again, err := c.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payloads[0]) {
				t.Fatal("re-encoding the stored checkpoint changed its bytes")
			}

			prog, err := runner.Load(arch, src)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := runner.Run(context.Background(), prog, longloopSpec(), runner.Options{})
			got, gerr := runner.Resume(context.Background(), prog, longloopSpec(), runner.Options{}, c)
			if w, g := resultBytes(t, want, werr), resultBytes(t, got, gerr); !bytes.Equal(w, g) {
				t.Fatalf("resumed run differs from the uninterrupted one:\nwant %s\ngot  %s", w, g)
			}

			// A checkpoint taken now at the same cycle encodes to the
			// stored bytes: the format is unchanged on the write side too.
			var fresh *ckpt.Checkpoint
			_, _ = runner.Run(context.Background(), prog, longloopSpec(), runner.Options{
				CheckpointEvery: 60000,
				Checkpoint: func(c *ckpt.Checkpoint) {
					if fresh == nil {
						fresh = c
					}
				},
			})
			fresh.Key = "longloop"
			enc, err := fresh.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, payloads[0]) {
				t.Fatal("a fresh checkpoint of the same run encodes differently from the stored one")
			}
		})
	}
}

// TestGrownPrefixEncodesLikeFullImage checkpoints two machines whose
// memories hold the same words, one backing only the prefix its pokes
// grew and one backed to the last word: the bytes must be identical.
func TestGrownPrefixEncodesLikeFullImage(t *testing.T) {
	prog := &isa.Program{NumFU: 1, Instrs: []isa.Instruction{{{Data: isa.Nop, Ctrl: isa.Halt()}}}}
	encode := func(m *mem.Shared) []byte {
		t.Helper()
		mc, err := core.New(prog, core.Config{Memory: m})
		if err != nil {
			t.Fatal(err)
		}
		s, err := mc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := (&ckpt.Checkpoint{Arch: "ximd", Key: "k", Ximd: s}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	grown, full := mem.NewShared(0), mem.NewShared(0)
	for _, m := range []*mem.Shared{grown, full} {
		m.PokeInts(5, 1, 2, 3)
		m.PokeInts(70000, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4)
	}
	full.Poke(full.Size()-1, 0)
	if len(grown.Raw()) >= len(full.Raw()) || len(full.Raw()) != int(full.Size()) {
		t.Fatalf("backed prefixes %d and %d words; want a grown one and a full one", len(grown.Raw()), len(full.Raw()))
	}
	if !bytes.Equal(encode(grown), encode(full)) {
		t.Fatal("the grown-prefix image encodes differently from the fully backed one")
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocatesOnlySegments decodes checkpoints that declare the
// largest geometry the decoder accepts but carry no segments. Decode
// must allocate what the segments hold, not what the header declares:
// a 25-byte input once made DecodeState allocate 256 MB.
func TestDecodeAllocatesOnlySegments(t *testing.T) {
	const limit = 1 << 20
	const maxWords = 1 << 26 // the decoder's geometry limit

	w := &wire.Writer{}
	w.U8(1)         // shared-memory state
	w.U64(0)        // loads
	w.U64(0)        // stores
	w.U32(maxWords) // declared size
	w.U32(0)        // no segments
	shared := w.Bytes()
	if len(shared) != 25 {
		t.Fatalf("shared input is %d bytes, want 25", len(shared))
	}
	w = &wire.Writer{}
	w.U8(2)          // distributed state
	w.U32(isa.NumFU) // banks
	for i := 0; i < isa.NumFU; i++ {
		w.U32(maxWords)
		w.U32(0)
	}
	distributed := w.Bytes()

	for name, in := range map[string][]byte{"shared": shared, "distributed": distributed} {
		var err error
		if n := allocated(func() { _, err = mem.DecodeState(wire.NewReader(in)) }); n > limit {
			t.Errorf("mem.DecodeState(%s) allocated %d bytes, want under %d", name, n, limit)
		}
		if err != nil {
			t.Errorf("mem.DecodeState(%s): %v", name, err)
		}
	}

	// The same shape through the checkpoint decoder: a machine whose
	// memory declares the limit and has stored nothing.
	prog := &isa.Program{NumFU: 1, Instrs: []isa.Instruction{{{Data: isa.Nop, Ctrl: isa.Halt()}}}}
	mc, err := core.New(prog, core.Config{Memory: mem.NewShared(maxWords)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := mc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := (&ckpt.Checkpoint{Arch: "ximd", Key: "k", Ximd: s}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var c *ckpt.Checkpoint
	if n := allocated(func() { c, err = ckpt.Decode(payload) }); n > limit {
		t.Errorf("ckpt.Decode allocated %d bytes, want under %d", n, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Restore(c.Ximd); err != nil {
		t.Fatalf("restoring the decoded checkpoint: %v", err)
	}
}
