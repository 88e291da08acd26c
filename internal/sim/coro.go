//go:build go1.23

package sim

import "iter"

// start makes p a coroutine running fn: p.next resumes it until it yields
// (or finishes), and p.yield, called from inside, hands control back.
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
}
