package transport

// benchWireTag lives at the top of the user range so it can never collide
// with the runtime's registered wire types.
const benchWireTag byte = 0xF0

func (benchPayload) WireTag() byte { return benchWireTag }

func (p benchPayload) AppendWire(b []byte) []byte {
	b = AppendString(b, p.Key)
	b = AppendBytes(b, p.Value)
	return AppendUvarint(b, p.Seq)
}

func decodeBenchPayload(b []byte) (any, error) {
	r := NewWireReader(b)
	p := benchPayload{Key: r.String(), Value: r.Bytes(), Seq: r.Uvarint()}
	return p, r.Finish()
}

// registerBenchPayload makes benchPayload carriable over the wire.
func registerBenchPayload() {
	RegisterWireDecoder(benchWireTag, decodeBenchPayload)
}
