package uproc

import "multics/internal/lockrank"

// A runQueue is the ready queue: an intrusive doubly-linked FIFO
// list. Enqueue, dequeue and removal are all O(1): the links live in
// the Process itself. The queue's lock protects every link field
// (next, prev, queued) of the processes on it.
type runQueue struct {
	// mu takes the layer's sub-rank below the per-process lock, so a
	// holder of p.pmu may enqueue p without violating the
	// certification order.
	mu lockrank.Mutex

	head, tail *Process
	size       int
	// maxDepth is the high-water mark of size, for the scheduler
	// statistics.
	maxDepth int
}

// push appends p to the queue (front prepends — used to return a
// process whose dispatch failed without sending it to the back of the
// line). Caller holds rq.mu and p.pmu.
func (rq *runQueue) push(p *Process, front bool) {
	p.queued = true
	p.next, p.prev = nil, nil
	if rq.head == nil {
		rq.head, rq.tail = p, p
	} else if front {
		p.next = rq.head
		rq.head.prev = p
		rq.head = p
	} else {
		p.prev = rq.tail
		rq.tail.next = p
		rq.tail = p
	}
	rq.size++
	if rq.size > rq.maxDepth {
		rq.maxDepth = rq.size
	}
}

// remove unlinks p. Caller holds rq.mu and p must be queued here.
func (rq *runQueue) remove(p *Process) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		rq.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		rq.tail = p.prev
	}
	p.next, p.prev = nil, nil
	p.queued = false
	rq.size--
}

// pop removes and returns the head of the queue, nil when it is
// empty. Caller holds rq.mu.
func (rq *runQueue) pop() *Process {
	p := rq.head
	if p != nil {
		rq.remove(p)
	}
	return p
}
