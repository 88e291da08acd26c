package isa

import (
	"testing"

	"repro/internal/core"
)

// loopProgram walks 64 shared words with raw loads and stores, spilling
// the running sum to the stack and reloading it each iteration: one
// private and one shared access of each kind per trip.
const loopProgram = `
proc main
    lda   r1, 0x100000000 ; shared cursor
    lda   r2, 64          ; trips
    lda   r3, 0           ; sum
loop:
    ldq   r4, 0(r1)
    addq  r3, r3, r4
    stq   r3, 0(sp)
    ldq   r5, 0(sp)
    addq  r5, r5, #1
    stq   r5, 0(r1)
    addq  r1, r1, #8
    subq  r2, r2, #1
    bne   r2, loop
    stq   r3, 0(gp)
    halt
endproc
`

// BenchmarkInterpRun measures one interpreter run end to end: a fresh
// system and a fresh interpreter executing loopProgram on one process.
// instrs/op is the number of instructions retired per run.
func BenchmarkInterpRun(b *testing.B) {
	prog, err := Assemble(loopProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var instrs int64
	for i := 0; i < b.N; i++ {
		s := testSystem(b)
		m := NewInterp(prog)
		s.Spawn("cpu", 0, func(p *core.Proc) {
			if err := m.Run(p, "main"); err != nil {
				b.Error(err)
			}
		})
		s.Alloc(64*8, core.AllocOptions{Home: 0})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		instrs = m.Executed()
	}
	b.ReportMetric(float64(instrs), "instrs/op")
}
