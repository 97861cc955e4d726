package core

import (
	"sort"
	"strconv"
	"strings"

	"ximd/internal/isa"
)

// Partition is the division of the machine's functional units into
// synchronous sets (SSETs), Section 2.4: "An SSET of functional units is
// indistinguishable from a VLIW processor of the same size."
//
// The paper defines membership semantically — two FUs are in the same
// SSET at time t if, given the program and the control state of one, the
// control state of the other is uniquely determined. This implementation
// tracks the observable refinement that reproduces the paper's Figure 10
// trace exactly:
//
//   - FUs start in a single SSET (every program begins with all FUs at
//     the entry address, Figure 9).
//   - An SSET splits when its members execute different control
//     operations (or execute from different addresses): a data-dependent
//     conditional evaluated by one member tells the others nothing, even
//     if all members happen to land on the same address — which is why
//     Figure 10 reports {0,1}{2}{3} at cycle 9 although all four FUs sit
//     at address 03.
//   - SSETs merge when their control reconverges: all members arrive at
//     the same next address either through unconditional branches (the
//     join at the bottom of a fork, MINMAX cycle 3→4) or by executing the
//     identical conditional control operation, whose outcome over the
//     global CC/SS state is necessarily common (the ALL-SS barrier of
//     Example 3, where every waiting FU spins on the same parcel and all
//     leave together).
//
// The unconditional-merge rule can over-merge: two independent streams
// that happen to pass through the same address with the same goto in the
// same cycle are reported joined for that instant and re-split at their
// next data-dependent branch. This errs toward fewer reported streams
// (MeanStreams is a slight underestimate on MIMD-style phases) and is
// exact on statically reconverging joins, which is what Figure 10
// exhibits.
//
// Halted FUs retain their final SSET and stop participating in updates.
type Partition struct {
	// sset[i] is the SSET id of FU i; ids are normalized so that each
	// SSET is named by its lowest-numbered member.
	sset []int
}

// NumFU returns the number of functional units covered.
func (p Partition) NumFU() int { return len(p.sset) }

// NumSSETs returns the number of distinct SSETs.
func (p Partition) NumSSETs() int {
	seen := make(map[int]struct{}, len(p.sset))
	for _, id := range p.sset {
		seen[id] = struct{}{}
	}
	return len(seen)
}

// SameSSET reports whether FUs a and b are in the same SSET.
func (p Partition) SameSSET(a, b int) bool { return p.sset[a] == p.sset[b] }

// SSETs returns the partition as sorted member lists, ordered by lowest
// member: {0,1}{2}{3,6,7} ⇒ [[0,1],[2],[3,6,7]].
func (p Partition) SSETs() [][]int {
	groups := make(map[int][]int)
	for fu, id := range p.sset {
		groups[id] = append(groups[id], fu)
	}
	ids := make([]int, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([][]int, 0, len(ids))
	for _, id := range ids {
		out = append(out, groups[id])
	}
	return out
}

// String renders the partition in the paper's set notation, e.g.
// "{0,1}{2}{3,6,7}{4,5}".
func (p Partition) String() string {
	var b strings.Builder
	for _, set := range p.SSETs() {
		b.WriteByte('{')
		for i, fu := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(fu))
		}
		b.WriteByte('}')
	}
	return b.String()
}

// Equal reports whether two partitions are identical.
func (p Partition) Equal(q Partition) bool {
	if len(p.sset) != len(q.sset) {
		return false
	}
	for i := range p.sset {
		if p.sset[i] != q.sset[i] {
			return false
		}
	}
	return true
}

// ParsePartition parses the paper's set notation into a Partition over
// numFU functional units, for use in golden tests. Every FU in
// [0, numFU) must appear exactly once.
func ParsePartition(s string, numFU int) (Partition, error) {
	sset := make([]int, numFU)
	for i := range sset {
		sset[i] = -1
	}
	rest := s
	for len(rest) > 0 {
		if rest[0] != '{' {
			return Partition{}, &partitionSyntaxError{s}
		}
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return Partition{}, &partitionSyntaxError{s}
		}
		var members []int
		for _, tok := range strings.Split(rest[1:end], ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			fu, err := strconv.Atoi(tok)
			if err != nil || fu < 0 || fu >= numFU || sset[fu] != -1 {
				return Partition{}, &partitionSyntaxError{s}
			}
			members = append(members, fu)
		}
		if len(members) == 0 {
			return Partition{}, &partitionSyntaxError{s}
		}
		sort.Ints(members)
		for _, fu := range members {
			sset[fu] = members[0]
		}
		rest = rest[end+1:]
	}
	for _, id := range sset {
		if id == -1 {
			return Partition{}, &partitionSyntaxError{s}
		}
	}
	return Partition{sset: sset}, nil
}

type partitionSyntaxError struct{ s string }

func (e *partitionSyntaxError) Error() string {
	return "core: malformed partition notation " + strconv.Quote(e.s)
}

// transition describes what one FU's sequencer did in a cycle. The
// control operation is carried as its ctrlTag — the packed normalized
// form — so the tracker compares single integers instead of CtrlOp
// structs (this loop dominated the whole-simulator profile before the
// switch to packed keys).
type transition struct {
	halted  bool // FU was already halted before the cycle
	halting bool // FU executes halt this cycle
	pc      isa.Addr
	next    isa.Addr
	tag     uint64 // ctrlTag of the executed control operation
}

// partitionTracker maintains the SSET partition across cycles. The
// scratch slices avoid per-cycle allocation (groups are at most NumFU
// entries, so linear scans beat maps).
type partitionTracker struct {
	sset    []int
	scratch []int // next-cycle sset ids under construction
	splits  []splitEntry
	merges  []mergeEntry
}

type splitEntry struct {
	key uint64
	id  int
}

type mergeEntry struct {
	key uint64
	id  int
}

func newPartitionTracker(numFU int) *partitionTracker {
	t := &partitionTracker{
		sset:    make([]int, numFU),
		scratch: make([]int, numFU),
	}
	return t // all zero: a single SSET
}

func (t *partitionTracker) partition() Partition {
	out := make([]int, len(t.sset))
	copy(out, t.sset)
	return Partition{sset: out}
}

// numSSETs counts distinct SSET ids without materializing a Partition
// (the per-cycle statistics path).
func (t *partitionTracker) numSSETs() int {
	var seen [2 * 8]bool // ids are < 2*NumFU by construction
	n := 0
	for _, id := range t.sset {
		if !seen[id] {
			seen[id] = true
			n++
		}
	}
	return n
}

// Key packing. A split key identifies the subgroup an FU belongs to
// after the split step: members of one SSET stay together only if they
// executed from the same address with the identical control operation —
// (sset, pc, tag), packed as tag | pc<<45 | sset<<61. ctrlTag uses bits
// 0..44, pc is a 16-bit address at 45..60, and a running FU's sset id is
// a first-member FU index < 8, fitting the top 3 bits exactly.
//
// A merge key identifies reconvergence classes: subgroups whose control
// transfer is mutually determined merge into one SSET. Unconditional
// transfers merge by target address; conditional transfers merge only
// with subgroups executing the identical control operation (whose global
// outcome is necessarily shared). The ctrlTag alone expresses both: a
// goto's tag is exactly (kind, target) — tr.next equals the goto's T1 —
// and a conditional's tag is the identical-control class, with the kind
// bits keeping the two classes disjoint.

func (t *partitionTracker) update(trans []transition) {
	n := len(t.sset)
	newSset := t.scratch

	// Pass 1: split within existing SSETs. A halted or halting FU becomes
	// a frozen singleton (id offset past the running range so it can never
	// collide with a running group's id).
	t.splits = t.splits[:0]
	for fu := range trans {
		tr := &trans[fu]
		if tr.halted || tr.halting {
			newSset[fu] = n + fu
			continue
		}
		k := tr.tag | uint64(tr.pc)<<45 | uint64(t.sset[fu])<<61
		id := -1
		for _, e := range t.splits {
			if e.key == k {
				id = e.id
				break
			}
		}
		if id < 0 {
			id = fu
			t.splits = append(t.splits, splitEntry{key: k, id: id})
		}
		newSset[fu] = id
	}

	// Pass 2: merge reconverging subgroups (union by relabeling; groups
	// are tiny, at most 8 members).
	t.merges = t.merges[:0]
	for fu := range trans {
		tr := &trans[fu]
		if tr.halted || tr.halting {
			continue
		}
		mk := tr.tag
		id := newSset[fu]
		found := -1
		for i := range t.merges {
			if t.merges[i].key == mk {
				found = i
				break
			}
		}
		if found < 0 {
			t.merges = append(t.merges, mergeEntry{key: mk, id: id})
			continue
		}
		if rep := t.merges[found].id; rep != id {
			lo, hi := rep, id
			if lo > hi {
				lo, hi = hi, lo
			}
			for j := range newSset {
				if newSset[j] == hi {
					newSset[j] = lo
				}
			}
			t.merges[found].id = lo
		}
	}

	// Normalize running-group ids to the lowest member of each group:
	// ids are first-member indices, and relabeling always keeps the lower
	// one, so the first FU carrying an id is the group's lowest member —
	// the ids are already canonical.
	copy(t.sset, newSset)
}
