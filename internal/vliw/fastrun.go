package vliw

import "ximd/internal/isa"

// This file is the runtime half of the VLIW fused execution engine
// (fuse.go builds the static tables); it mirrors the XIMD core's
// fastrun.go with the simplifications the single sequencer affords: no
// per-FU PCs to compare, no partition tracker or stream accounting to
// reconstruct (every cycle runs exactly one stream), and no livelock
// digest. Wherever the machine sits at the head of a straight-line
// superop run, StepN executes the whole run in one tight loop and folds
// the observable counters in bulk at run exit. On an op fault (ALU
// trap, out-of-range access, non-tolerated store conflict) the run
// discards the faulting word's local buffers, commits the completed
// prefix, and replays the word through the per-cycle stepFast — which
// reproduces the partial statistics and exact error text of an unfused
// run, byte for byte. A store past the memory's backed prefix takes the
// same replay, which grows the prefix; a load there reads zero inline.
//
// Runtime preconditions (checked at New into fuseOK, plus per StepN
// call): fast engine, fusion not disabled, no fault injection, no
// tracer, plain *mem.Shared with no device mappings. Anything else
// falls back to the per-cycle Step, which remains the single source of
// truth for one cycle's semantics — Step itself never fuses.

// StepN executes up to n machine cycles, using fused superop runs when
// eligible. It is semantically identical to calling Step n times and
// stopping at the first halt or error.
func (m *Machine) StepN(n uint64) (running bool, err error) {
	fuseActive := m.fuseOK && !m.shared.HasMappings()
	var executed uint64
	for executed < n {
		if fuseActive && m.failure == nil && !m.done {
			if k := uint64(m.fuse.runLen[m.pc]); k > 0 {
				if rem := n - executed; k > rem {
					k = rem
				}
				if avail := m.config.MaxCycles - m.cycle; m.cycle >= m.config.MaxCycles {
					k = 0
				} else if k > avail {
					k = avail
				}
				if k > 0 {
					done, err := m.fusedRun(m.pc, k)
					executed += done
					if err != nil {
						return false, err
					}
					continue
				}
			}
		}
		running, err := m.Step()
		executed++
		if err != nil {
			return false, err
		}
		if !running {
			return false, nil
		}
	}
	return true, nil
}

// fusedRun executes up to maxWords words of the superop run starting at
// entry (all preconditions already checked). It returns the number of
// cycles executed and the terminal error, if any.
func (m *Machine) fusedRun(entry isa.Addr, maxWords uint64) (uint64, error) {
	fi := m.fuse
	regs := m.regs.Raw()
	// words is the memory's backed prefix: loads past it but below
	// Size() read zero inline; a store past it bails to the per-cycle
	// replay, which grows the prefix.
	words := m.shared.Raw()
	tolerate := m.config.TolerateConflicts

	k := uint64(fi.runLen[entry])
	if k > maxWords {
		k = maxWords
	}
	entryCycle := m.cycle
	ccBits := m.ccBits

	for i := uint64(0); i < k; i++ {
		addr := entry + isa.Addr(i)
		w := &fi.words[addr]
		ops := fi.ops[w.opStart:w.opEnd]

		// Word-local buffers: nothing machine-visible mutates until the
		// whole word has executed, so a faulting op can discard the word
		// and hand it to the per-cycle replay untouched.
		var nw, ns int
		var wReg [isa.NumFU]uint8
		var wVal [isa.NumFU]isa.Word
		var sAddr [isa.NumFU]uint32
		var sVal [isa.NumFU]isa.Word
		var ccSet, ccVal uint8
		var conflicts uint64

		for oi := range ops {
			op := &ops[oi]
			var a, b isa.Word
			if op.AFromReg() {
				a = regs[op.AReg]
			} else {
				a = op.AImm
			}
			if op.BFromReg() {
				b = regs[op.BReg]
			} else {
				b = op.BImm
			}
			switch op.Op {
			case isa.OpLoad:
				laddr := uint32(a.Int() + b.Int())
				var v isa.Word
				if laddr < uint32(len(words)) {
					v = words[laddr]
				} else if laddr >= m.shared.Size() {
					return m.fuseBail(entry, i, ccBits, entryCycle)
				}
				wReg[nw] = op.Dest
				wVal[nw] = v
				nw++
			case isa.OpStore:
				saddr := uint32(b.Int())
				if saddr >= uint32(len(words)) {
					return m.fuseBail(entry, i, ccBits, entryCycle)
				}
				for si := 0; si < ns; si++ {
					if sAddr[si] == saddr {
						if !tolerate {
							return m.fuseBail(entry, i, ccBits, entryCycle)
						}
						conflicts++
						break
					}
				}
				sAddr[ns] = saddr
				sVal[ns] = a
				ns++
			default:
				res, cc, aerr := isa.EvalALU(op.Op, a, b)
				if aerr != nil {
					return m.fuseBail(entry, i, ccBits, entryCycle)
				}
				if op.WritesCC() {
					bit := uint8(1) << op.fu
					ccSet |= bit
					if cc {
						ccVal |= bit
					}
				} else if op.WritesReg() {
					wReg[nw] = op.Dest
					wVal[nw] = res
					nw++
				}
			}
		}

		// Word commit: reads of the next word must observe this word's
		// writes, exactly like the staged per-cycle commit. Staging order
		// is FU order, so "last staged wins" on a tolerated store
		// conflict is reproduced by applying the buffer in order.
		for wi := 0; wi < nw; wi++ {
			regs[wReg[wi]] = wVal[wi]
		}
		for si := 0; si < ns; si++ {
			words[sAddr[si]] = sVal[si]
		}
		ccBits = (ccBits &^ ccSet) | ccVal
		m.stats.MemConflicts += conflicts
	}

	m.fuseExit(entry, k, ccBits, entryCycle)
	return k, nil
}

// fuseExit commits the bulk bookkeeping of j completed words of the run
// starting at entry, leaving the machine byte-identical to j per-cycle
// steps: statistics, port and memory accounting, and architectural
// state (PC, CC vector, cycle count).
func (m *Machine) fuseExit(entry isa.Addr, j uint64, ccBits uint8, entryCycle uint64) {
	fi := m.fuse
	n := m.numFU

	var loads, stores, reads, writes uint64
	peakR, peakW := 0, 0
	for wi := uint64(0); wi < j; wi++ {
		w := &fi.words[entry+isa.Addr(wi)]
		loads += uint64(w.loads)
		stores += uint64(w.stores)
		reads += uint64(w.reads)
		writes += uint64(w.writes)
		if int(w.reads) > peakR {
			peakR = int(w.reads)
		}
		if int(w.writes) > peakW {
			peakW = int(w.writes)
		}
		nm := w.nopMask
		for fu := 0; fu < n; fu++ {
			if nm&(1<<fu) != 0 {
				m.stats.Nops[fu]++
			} else {
				m.stats.DataOps[fu]++
			}
		}
	}
	m.stats.Loads += loads
	m.stats.Stores += stores
	m.stats.Cycles += j
	m.stats.StreamHistogram[1] += j // a VLIW always runs exactly one stream

	m.regs.AddBulk(j, reads, writes, peakR, peakW)
	m.shared.AddCounters(loads, stores)

	m.pc = entry + isa.Addr(j)
	m.ccBits = ccBits
	m.cycle = entryCycle + j
}

// fuseBail handles an op fault inside word entry+i of a fused run, or a
// store past the memory's backed prefix (no fault, but only the
// per-cycle path grows the prefix): the completed prefix [entry,
// entry+i) commits its bulk bookkeeping, the machine rewinds to the
// start of the bailing word (its buffered effects are simply dropped),
// and the word replays through the per-cycle stepFast, which
// reproduces the partial statistics and the exact error of an unfused
// run.
func (m *Machine) fuseBail(entry isa.Addr, i uint64, ccBits uint8, entryCycle uint64) (uint64, error) {
	if i > 0 {
		m.fuseExit(entry, i, ccBits, entryCycle)
	}
	_, err := m.stepFast()
	executed := i
	if err == nil {
		// A growing store replays cleanly; for a fault, the replay
		// disagreeing with the fused detection would be an engine bug.
		// Counting the replayed cycle keeps StepN's bookkeeping honest
		// either way.
		executed++
	}
	return executed, err
}
