package phy

// crcPoly is the CRC-16/CCITT-FALSE generator polynomial.
const crcPoly = 0x1021

// crcTable[b] is the checksum register after shifting byte b through an
// all-zero register: the eight bitwise steps of one input byte, done
// once for each of the 256 byte values.
var crcTable = func() (t [256]uint16) {
	for b := range t {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// CRC16 computes the CRC-16/CCITT-FALSE checksum (polynomial 0x1021,
// initial value 0xFFFF, no reflection, no final XOR) over data. The
// transponder frame uses it to let the Caraoke decoder know when
// coherent combining has accumulated enough SNR (§8: "the reader keeps
// combining collisions until the decoded id passes the checksum test").
// The decoder computes it once per query per in-flight target, so it
// goes a byte at a time through crcTable.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}
