package uarch

import (
	"fmt"

	"repro/internal/isa"
)

// Recording is one functional run of a program, kept in a form the
// timing model can replay under any Config without re-executing it.
//
// It stores no per-instruction record. The static code image, decoded
// once, gives every instruction's operation and fall-through PC; only
// the values a program's data decides are kept, each in dynamic order
// in its own stream: one bit per conditional branch, the effective
// address of every load and store, and the target of every JALR. JAL
// targets and not-taken branches follow from the image. Replay walks
// the image from the entry PC, consuming the streams.
//
// The layout relies on the image being what ran: Record refuses a run
// whose PC leaves the image or that stores into it.
type Recording struct {
	origin uint32     // address of code[0]
	entry  uint32     // PC of the first recorded instruction
	code   []isa.Inst // decoded image, one entry per word
	instrs uint64     // dynamic instructions recorded
	taken  []uint64   // conditional-branch directions, one bit each
	addrs  []uint32   // load/store effective addresses
	jumps  []uint32   // JALR targets
}

// Record runs m, already loaded with p and initialized, for up to maxInstrs
// instructions or until HALT, and returns the run as a Recording. The
// machine is left in its final state, so the caller can check the
// architectural result. An execution error, a PC outside p's image, or
// a store into that image fails the recording.
func Record(m *isa.Machine, p *isa.Program, maxInstrs uint64) (*Recording, error) {
	size := 4 * uint64(len(p.Words))
	if p.Origin%4 != 0 || uint64(p.Origin)+size > uint64(len(m.Mem)) {
		return nil, fmt.Errorf("uarch: code image at %#x (%d bytes) is unaligned or exceeds memory", p.Origin, size)
	}
	r := &Recording{origin: p.Origin, entry: m.PC, code: make([]isa.Inst, len(p.Words))}
	for i := range r.code {
		r.code[i] = isa.Decode(m.ReadWord(p.Origin + 4*uint32(i)))
	}
	inImage := func(addr uint32) bool { return addr >= p.Origin && uint64(addr-p.Origin) < size }
	var conds uint64
	for r.instrs < maxInstrs && !m.Halted {
		if !inImage(m.PC) {
			return nil, fmt.Errorf("uarch: pc %#x left the code image [%#x, %#x) after %d instructions",
				m.PC, p.Origin, uint64(p.Origin)+size, r.instrs)
		}
		tr, err := m.Step()
		if err != nil {
			return nil, err
		}
		switch op := tr.Inst.Op; op.Class() {
		case isa.ClassStore:
			if inImage(tr.MemAddr &^ 3) {
				return nil, fmt.Errorf("uarch: %v at pc %#x writes %#x inside the code image", op, tr.PC, tr.MemAddr)
			}
			r.addrs = append(r.addrs, tr.MemAddr)
		case isa.ClassLoad:
			r.addrs = append(r.addrs, tr.MemAddr)
		case isa.ClassBranch:
			switch {
			case op == isa.JALR:
				r.jumps = append(r.jumps, tr.Target)
			case op.IsCond():
				if conds%64 == 0 {
					r.taken = append(r.taken, 0)
				}
				if tr.Taken {
					r.taken[conds/64] |= 1 << (conds % 64)
				}
				conds++
			}
		}
		r.instrs++
	}
	return r, nil
}

// Instrs returns the number of dynamic instructions recorded.
func (r *Recording) Instrs() uint64 { return r.instrs }

// Bytes returns the size of the recording's image and streams.
func (r *Recording) Bytes() int {
	const instBytes = 8 // isa.Inst: four uint8 fields and an int32
	return instBytes*len(r.code) + 8*len(r.taken) + 4*len(r.addrs) + 4*len(r.jumps)
}

// Replay returns a TraceSource that yields the recorded run's dynamic
// instructions in program order, identical to the isa.Trace records
// the functional machine produced. Each call returns an independent
// cursor; the Recording itself is never modified.
func (r *Recording) Replay() TraceSource { return &replay{Recording: *r, pc: r.entry} }

// replay is a cursor over a Recording. It holds a copy of the
// Recording's header, sharing its backing arrays, so Next reaches the
// streams without a second indirection.
type replay struct {
	Recording
	pc               uint32
	n                uint64
	cond, mem, jalrs int
}

// Next implements TraceSource.
func (s *replay) Next() (isa.Trace, bool) {
	if s.n == s.instrs {
		return isa.Trace{}, false
	}
	s.n++
	in := s.code[(s.pc-s.origin)>>2]
	tr := isa.Trace{PC: s.pc, Inst: in}
	next := s.pc + 4
	switch in.Op.Class() {
	case isa.ClassLoad, isa.ClassStore:
		tr.MemAddr = s.addrs[s.mem]
		s.mem++
	case isa.ClassBranch:
		switch {
		case in.Op == isa.JAL:
			tr.Taken = true
			next = s.pc + uint32(in.Imm)
		case in.Op == isa.JALR:
			tr.Taken = true
			next = s.jumps[s.jalrs]
			s.jalrs++
		default:
			if s.taken[s.cond/64]>>(s.cond%64)&1 != 0 {
				tr.Taken = true
				next = s.pc + uint32(in.Imm)
			}
			s.cond++
		}
		tr.Target = next
	}
	s.pc = next
	return tr, true
}
