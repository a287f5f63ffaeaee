package hw

// Word is one 36-bit Multics machine word. The simulation stores words
// in a uint64 but masks all stores to 36 bits so that arithmetic
// behaves like the real machine's.
type Word uint64

// WordMask keeps the low 36 bits of a stored value.
const WordMask Word = (1 << 36) - 1

// PageWords is the number of words in one page (and one disk record).
const PageWords = 1024

// Masked returns w truncated to 36 bits.
func (w Word) Masked() Word { return w & WordMask }

// PageOf returns the page number containing word offset off.
func PageOf(off int) int { return off / PageWords }
