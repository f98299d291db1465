package phy

// Manchester coding: each data bit becomes two OOK chips. A "1" is
// carrier-on then carrier-off; a "0" is carrier-off then carrier-on.
// Every bit therefore spends exactly half its duration transmitting,
// which gives the response a 0.5 mean — the DC term that becomes the
// CFO spike Caraoke detects (§3: s(t) = 0.5 + s'(t) with s' zero-mean).

// ManchesterEncode expands data bits into OOK chips (0 = off, 1 = on).
func ManchesterEncode(bits Bits) Bits {
	chips := make(Bits, 0, len(bits)*ChipsPerBit)
	for _, b := range bits {
		if b != 0 {
			chips = append(chips, 1, 0)
		} else {
			chips = append(chips, 0, 1)
		}
	}
	return chips
}
