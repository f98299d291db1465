package phy

import (
	"math/rand"
	"testing"
)

// crc16Bitwise is the textbook shift register CRC16's table is built
// from, one bit at a time: the oracle for the table-driven form.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwiseOracle(t *testing.T) {
	// The CCITT-FALSE check vector pins the oracle itself.
	if got := crc16Bitwise([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("bitwise oracle check vector = %#04x, want 0x29B1", got)
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(%x) = %#04x, bitwise oracle %#04x", data, got, want)
		}
	}
}
