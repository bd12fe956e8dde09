package simtime

// Pool is a last-in, first-out free list of T values refilled a block of
// poolBlock zero values at a time, so a rising population allocates once
// per block and a steady Get/Put loop not at all. Values never move, so a
// value is named both by its address and by its uint32 id, which At maps
// back (the calendar queue's pointer-free buckets hold ids). The zero
// Pool is empty and ready; it is not safe for concurrent use.
type Pool[T any] struct {
	blocks []*[poolBlock]T
	free   []uint32
}

// poolBlock is how many values an empty free list is refilled with.
const poolBlock = 256

// Get takes a value's id off the free list. The pool never clears a
// value: a recycled one holds whatever it held when it was put back. Get
// is kept small enough to inline, so the hot paths pay no call for it.
func (p *Pool[T]) Get() uint32 {
	if len(p.free) == 0 {
		p.grow()
	}
	id := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return id
}

// At returns the value an id names.
func (p *Pool[T]) At(id uint32) *T { return &p.blocks[id/poolBlock][id%poolBlock] }

// Put returns the value named by id to the free list.
func (p *Pool[T]) Put(id uint32) { p.free = append(p.free, id) }

// grow adds a block of fresh values to the free list.
func (p *Pool[T]) grow() {
	base := uint32(len(p.blocks)) * poolBlock
	p.blocks = append(p.blocks, new([poolBlock]T))
	for i := range uint32(poolBlock) {
		p.free = append(p.free, base+i)
	}
}
