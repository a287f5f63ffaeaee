package hw

import (
	"fmt"
	"sync/atomic"
)

// Memory is the simulated primary ("core") memory: a fixed number of
// page frames of PageWords words each. Frame ownership and allocation
// policy belong to higher layers (the core segment manager wires
// frames at initialization; the page frame manager multiplexes the
// rest); Memory itself only stores words and bounds-checks addresses.
type Memory struct {
	words []Word
}

// NewMemory returns a memory of the given number of page frames.
func NewMemory(frames int) *Memory {
	if frames <= 0 {
		panic(fmt.Sprintf("hw: NewMemory frames = %d", frames))
	}
	return &Memory{words: make([]Word, frames*PageWords)}
}

// Frames reports the number of page frames.
func (m *Memory) Frames() int { return len(m.words) / PageWords }

// Words reports the total number of words.
func (m *Memory) Words() int { return len(m.words) }

// Read returns the word at absolute address addr.
func (m *Memory) Read(addr int) (Word, error) {
	if addr < 0 || addr >= len(m.words) {
		return 0, fmt.Errorf("hw: read of absolute address %d outside memory of %d words", addr, len(m.words))
	}
	return m.words[addr], nil
}

// Write stores w at absolute address addr. The store is atomic: a
// user store through a cached translation may land while the zero-page
// scan of an eviction on another processor reads the frame
// (FrameIsZero), which re-validates its verdict after the shootdown.
func (m *Memory) Write(addr int, w Word) error {
	if addr < 0 || addr >= len(m.words) {
		return fmt.Errorf("hw: write of absolute address %d outside memory of %d words", addr, len(m.words))
	}
	atomic.StoreUint64((*uint64)(&m.words[addr]), uint64(w.Masked()))
	return nil
}

// FrameBase returns the absolute address of the first word of frame f.
func (m *Memory) FrameBase(f int) int { return f * PageWords }

// Frame returns frame f's own words, not a copy: a transfer that
// fills the slice fills the frame, as the 6180's I/O channel moved a
// record straight into core. The slice's capacity ends with the frame,
// so an append cannot run into the next one.
func (m *Memory) Frame(f int) ([]Word, error) {
	if err := m.checkFrame(f); err != nil {
		return nil, err
	}
	return m.words[f*PageWords : (f+1)*PageWords : (f+1)*PageWords], nil
}

// ReadFrame copies the contents of frame f into dst, which must have
// PageWords elements.
func (m *Memory) ReadFrame(f int, dst []Word) error {
	if err := m.checkFrame(f); err != nil {
		return err
	}
	if len(dst) != PageWords {
		return fmt.Errorf("hw: ReadFrame buffer of %d words, want %d", len(dst), PageWords)
	}
	copy(dst, m.words[f*PageWords:(f+1)*PageWords])
	return nil
}

// WriteFrame copies src, which must have PageWords elements, into
// frame f.
func (m *Memory) WriteFrame(f int, src []Word) error {
	if err := m.checkFrame(f); err != nil {
		return err
	}
	if len(src) != PageWords {
		return fmt.Errorf("hw: WriteFrame buffer of %d words, want %d", len(src), PageWords)
	}
	copy(m.words[f*PageWords:(f+1)*PageWords], src)
	return nil
}

// ZeroFrame clears every word of frame f.
func (m *Memory) ZeroFrame(f int) error {
	if err := m.checkFrame(f); err != nil {
		return err
	}
	clear(m.words[f*PageWords : (f+1)*PageWords])
	return nil
}

// FrameIsZero reports whether every word of frame f is zero. The page
// removal algorithm of the storage system must scan page contents this
// way to implement the zero-page storage optimization -- the paper
// notes this gives the removal algorithm otherwise unnecessary access
// to the data of every page in the system. The scan loads each word
// atomically, pairing with Write's atomic store.
func (m *Memory) FrameIsZero(f int) (bool, error) {
	if err := m.checkFrame(f); err != nil {
		return false, err
	}
	words := m.words[f*PageWords : (f+1)*PageWords]
	for i := range words {
		if atomic.LoadUint64((*uint64)(&words[i])) != 0 {
			return false, nil
		}
	}
	return true, nil
}

func (m *Memory) checkFrame(f int) error {
	if f < 0 || f >= m.Frames() {
		return fmt.Errorf("hw: frame %d outside memory of %d frames", f, m.Frames())
	}
	return nil
}
