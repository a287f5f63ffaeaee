package netmux

import (
	"encoding/binary"
	"errors"
	"testing"

	"multics/internal/hw"
)

// fuzzWords decodes a fuzzed byte string as little-endian 8-byte
// words; a trailing partial word is ignored.
func fuzzWords(b []byte) []hw.Word {
	ws := make([]hw.Word, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		ws = append(ws, hw.Word(binary.LittleEndian.Uint64(b)))
	}
	return ws
}

// fuzzBytes is fuzzWords' inverse, for seeds.
func fuzzBytes(ws []hw.Word) []byte {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	return b
}

// FuzzDeliver checks the demultiplexer's accounting on arbitrary
// frames: Deliver never panics, a frame on a valid channel moves
// exactly one of Delivered, Dropped and ProtocolErrors by one, and an
// unrouted frame moves none of them and is refused. Each input is
// delivered a few times into queues of capacity two, so accepted
// frames also reach the queue-full drop.
func FuzzDeliver(f *testing.F) {
	f.Add(uint8(GenericKernel), "arpanet", 2, fuzzBytes(arpaFrame(2, 10, 20, 30).Payload))
	f.Add(uint8(PerNetworkKernel), "front-end", 5, fuzzBytes(feFrame(5, 'h', 'i').Payload))
	f.Add(uint8(GenericKernel), "arpanet", 99, fuzzBytes(arpaFrame(99, 1).Payload))
	f.Add(uint8(PerNetworkKernel), "front-end", 0, []byte{})
	f.Add(uint8(GenericKernel), "telnet", 0, fuzzBytes(feFrame(0, 'x').Payload))
	f.Fuzz(func(t *testing.T, mode uint8, network string, channel int, payload []byte) {
		m, _ := newMux(t, Mode(mode%2))
		m.SetQueueCap(2)
		frame := Frame{Channel: channel, Payload: fuzzWords(payload)}
		// The channel counts newMux attaches; zero for an unknown
		// network.
		channels := map[string]int{"arpanet": 4, "front-end": 8}[network]
		routed := channel >= 0 && channel < channels
		for i := 0; i < 3; i++ {
			before := m.MuxStats()
			err := m.Deliver(nil, network, frame)
			after := m.MuxStats()
			moved := (after.Delivered - before.Delivered) +
				(after.Dropped - before.Dropped) +
				(after.ProtocolErrors - before.ProtocolErrors)
			if !routed {
				if moved != 0 || after != before {
					t.Fatalf("unrouted frame moved the counters: %+v -> %+v", before, after)
				}
				if err == nil {
					t.Fatalf("unrouted frame (%q channel %d) accepted", network, channel)
				}
				if channels > 0 && !errors.Is(err, ErrBadChannel) {
					t.Fatalf("bad channel on %q = %v, want ErrBadChannel", network, err)
				}
				continue
			}
			if moved != 1 || after.Delivered < before.Delivered ||
				after.Dropped < before.Dropped || after.ProtocolErrors < before.ProtocolErrors {
				t.Fatalf("frame on %q channel %d moved the counters %+v -> %+v, want exactly one by one",
					network, channel, before, after)
			}
			if (err != nil) != (after.ProtocolErrors > before.ProtocolErrors) {
				t.Fatalf("error %v does not match the protocol-error count %+v -> %+v", err, before, after)
			}
		}
	})
}
