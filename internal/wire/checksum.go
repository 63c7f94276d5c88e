package wire

// fletcher16 computes the Fletcher-16 checksum of data. The paper notes
// that “the usual checksums associated with the data messages” exist but
// are elided from Figure 2; this implementation appends a Fletcher-16 to
// every frame so the receivers can screen out frames corrupted in the
// wireless medium. Fletcher-16 detects all single-byte errors and almost
// all burst errors while staying trivially cheap on an 8-bit sensor MCU,
// matching the paper's minimal-sensor-requirements design choice (§5).
func fletcher16(data []byte) uint16 {
	var sum1, sum2 uint32
	for len(data) > 0 {
		// Process in blocks of at most 5802 bytes, the largest count for
		// which the uint32 accumulators cannot overflow before reduction.
		n := len(data)
		if n > 5802 {
			n = 5802
		}
		for _, b := range data[:n] {
			sum1 += uint32(b)
			sum2 += sum1
		}
		sum1 %= 255
		sum2 %= 255
		data = data[n:]
	}
	return uint16(sum2<<8 | sum1)
}
