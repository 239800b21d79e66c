// Package dataflow is a generic forward/backward dataflow solver over the
// control-flow graphs of internal/analysis/cfg.
//
// An analysis supplies a Problem: the lattice (Bottom, Join, Equal), the
// boundary fact at the entry (forward) or exit (backward) block, and a
// Transfer function mapping a block's input fact to its output fact. Solve
// iterates transfer functions to a fixed point with a worklist scheduled in
// reverse postorder (forward) or postorder (backward) — the orders that
// make reducible graphs converge in near-linear passes.
//
// Facts must be immutable values from the solver's point of view:
// Transfer returns a fresh (or unchanged) fact and never mutates its input
// in place, because a block's output fact is joined into several
// successors.
package dataflow

import "burstmem/internal/analysis/cfg"

// Direction of a dataflow problem.
type Direction int

// Problem directions.
const (
	Forward Direction = iota
	Backward
)

// Problem describes one dataflow analysis over facts of type F.
type Problem[F any] interface {
	// Direction returns Forward or Backward.
	Direction() Direction
	// Boundary is the fact entering the graph: at Entry for forward
	// problems, at Exit for backward ones.
	Boundary() F
	// Bottom is the identity of Join: the initial fact of every other
	// block, and the fact unreachable blocks keep.
	Bottom() F
	// Join combines facts where paths merge. It must be commutative,
	// associative, idempotent, and satisfy Join(x, Bottom) = x.
	Join(a, b F) F
	// Equal reports whether two facts are equal; the fixed point is
	// reached when no block's input fact changes under Join.
	Equal(a, b F) bool
	// Transfer maps the fact at a block's start (forward: before the
	// first node; backward: after the last) across the whole block.
	Transfer(b *cfg.Block, in F) F
}

// Result holds the fixed-point facts per block. For forward problems In is
// the fact before the block and Out after it; for backward problems In is
// the fact after the block (flowing in from successors) and Out before it.
type Result[F any] struct {
	In, Out map[*cfg.Block]F
}

// Solve runs the worklist iteration to a fixed point and returns the facts.
func Solve[F any](g *cfg.CFG, p Problem[F]) Result[F] {
	res := Result[F]{
		In:  make(map[*cfg.Block]F, len(g.Blocks)),
		Out: make(map[*cfg.Block]F, len(g.Blocks)),
	}
	forward := p.Direction() == Forward

	// Iteration order: reverse postorder over the direction's edges.
	// For backward problems the postorder of the forward RPO works as the
	// analogous schedule.
	order := g.RPO()
	if !forward {
		rev := make([]*cfg.Block, len(order))
		for i, b := range order {
			rev[len(order)-1-i] = b
		}
		order = rev
	}
	prio := make(map[*cfg.Block]int, len(order))
	for i, b := range order {
		prio[b] = i
	}

	boundary := g.Entry
	if !forward {
		boundary = g.Exit
	}
	for _, b := range g.Blocks {
		res.In[b] = p.Bottom()
		res.Out[b] = p.Bottom()
	}
	res.In[boundary] = p.Boundary()

	// Worklist keyed by iteration-order priority.
	inList := make([]bool, len(g.Blocks))
	list := &prioQueue{prio: prio}
	push := func(b *cfg.Block) {
		if !inList[b.Index] {
			inList[b.Index] = true
			list.push(b)
		}
	}
	for _, b := range order {
		push(b)
	}

	preds := func(b *cfg.Block) []*cfg.Block {
		if forward {
			return b.Preds
		}
		return b.Succs
	}

	for list.len() > 0 {
		b := list.pop()
		inList[b.Index] = false

		// Recompute the input fact from the producing neighbours.
		in := p.Bottom()
		if b == boundary {
			in = p.Boundary()
		}
		for _, pr := range preds(b) {
			in = p.Join(in, res.Out[pr])
		}
		out := p.Transfer(b, in)

		changed := !p.Equal(in, res.In[b]) || !p.Equal(out, res.Out[b])
		res.In[b] = in
		res.Out[b] = out
		if changed {
			if forward {
				for _, s := range b.Succs {
					push(s)
				}
			} else {
				for _, s := range b.Preds {
					push(s)
				}
			}
		}
	}
	return res
}

// prioQueue pops the block with the lowest iteration-order priority first.
// Sizes here are tens of blocks, so an ordered insert into a slice beats
// heap bookkeeping.
type prioQueue struct {
	prio map[*cfg.Block]int
	q    []*cfg.Block
}

func (pq *prioQueue) len() int { return len(pq.q) }

func (pq *prioQueue) push(b *cfg.Block) {
	p := pq.prio[b]
	i := 0
	for i < len(pq.q) && pq.prio[pq.q[i]] < p {
		i++
	}
	pq.q = append(pq.q, nil)
	copy(pq.q[i+1:], pq.q[i:])
	pq.q[i] = b
}

func (pq *prioQueue) pop() *cfg.Block {
	b := pq.q[0]
	pq.q = pq.q[1:]
	return b
}
