package hw

import (
	"fmt"
	"sync"
)

// FrameAllocator hands out physical frames from a contiguous range. The
// boot path carves the machine's memory into an OS partition and a VMM
// partition (the pre-cached VMM's footprint, §4.1); each side then
// allocates only from its own allocator, and the VMM's frame-info table
// polices cross-ownership.
type FrameAllocator struct {
	mu    sync.Mutex
	lo    PFN // first frame in range
	hi    PFN // one past last frame
	free  []PFN
	next  PFN // bump pointer while free list is empty
	inUse map[PFN]bool
}

// NewFrameAllocator manages frames [lo, hi).
func NewFrameAllocator(lo, hi PFN) *FrameAllocator {
	return &FrameAllocator{lo: lo, hi: hi, next: lo, inUse: make(map[PFN]bool)}
}

// Split carves n frames off the top of the range into a new allocator.
// Used at boot to reserve the pre-cached VMM's memory.
func (a *FrameAllocator) Split(n PFN) (*FrameAllocator, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next != a.lo || len(a.free) != 0 {
		return nil, fmt.Errorf("hw: Split after allocation began")
	}
	if a.lo+n > a.hi {
		return nil, fmt.Errorf("hw: Split(%d) exceeds range of %d frames", n, a.hi-a.lo)
	}
	top := NewFrameAllocator(a.hi-n, a.hi)
	a.hi -= n
	return top, nil
}

// SplitTop carves n untouched frames off the top of the range into a
// new allocator, even after allocation has begun — possible because
// allocation bumps from the bottom. Used by a driver domain donating
// part of its partition to a newly hosted guest.
func (a *FrameAllocator) SplitTop(n PFN) (*FrameAllocator, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	newHi := a.hi - n
	if newHi < a.next {
		return nil, fmt.Errorf("hw: SplitTop(%d): only %d untouched frames at top",
			n, a.hi-a.next)
	}
	for _, f := range a.free {
		if f >= newHi {
			return nil, fmt.Errorf("hw: SplitTop(%d): freed frame %d in target range", n, f)
		}
	}
	a.hi = newHi
	return NewFrameAllocator(newHi, newHi+n), nil
}

// Alloc returns a free frame, or NoPFN if the range is exhausted.
func (a *FrameAllocator) Alloc() PFN {
	a.mu.Lock()
	defer a.mu.Unlock()
	var pfn PFN
	if n := len(a.free); n > 0 {
		pfn = a.free[n-1]
		a.free = a.free[:n-1]
	} else if a.next < a.hi {
		pfn = a.next
		a.next++
	} else {
		return NoPFN
	}
	a.inUse[pfn] = true
	return pfn
}

// Free returns a frame to the allocator.
func (a *FrameAllocator) Free(pfn PFN) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inUse[pfn] {
		panic(fmt.Sprintf("hw: double free of frame %d", pfn))
	}
	delete(a.inUse, pfn)
	a.free = append(a.free, pfn)
}

// Range returns the managed frame range [lo, hi).
func (a *FrameAllocator) Range() (lo, hi PFN) { return a.lo, a.hi }

// InUse returns the number of currently allocated frames.
func (a *FrameAllocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.inUse)
}

// Available returns how many frames remain allocatable.
func (a *FrameAllocator) Available() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.hi-a.next) + len(a.free)
}
