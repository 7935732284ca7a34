package serve

import (
	"strconv"

	"lamofinder/internal/jsonx"
	"lamofinder/internal/predict"
)

// This file is the zero-allocation JSON encoder for the predict hot path.
// Responses were previously rendered by encoding/json over response
// structs; the append-style encoder below produces byte-identical output
// for the fixed /v1/predict shape without reflection or intermediate
// buffers, so a predict request can serve entirely from a pooled []byte. The
// string and float primitives live in internal/jsonx (shared with the
// bulk-query row encoder); TestAppendPredictResponseMatchesStdlib pins the
// response-shape compatibility.

// appendPredictResponse renders the full /v1/predict body (trailing
// newline included): byte-for-byte what json.Marshal produces over
// PredictResponse, built by appending into the caller's buffer.
// rankings[i] is the (already truncated) ranking for proteins[i]; function
// names resolve through fnNames at encode time.
//
// alloc-budget: 0
func appendPredictResponse(buf []byte, digest string, k int, proteins []string,
	rankings [][]predict.Ranked, fnNames []string) []byte {
	buf = append(buf, `{"artifact":`...)
	buf = jsonx.AppendString(buf, digest)
	buf = append(buf, `,"k":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, `,"results":[`...)
	for i, name := range proteins {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"protein":`...)
		buf = jsonx.AppendString(buf, name)
		buf = append(buf, `,"predictions":[`...)
		for j, r := range rankings[i] {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"function":`...)
			buf = strconv.AppendInt(buf, int64(r.Function), 10)
			buf = append(buf, `,"name":`...)
			buf = jsonx.AppendString(buf, fnNames[r.Function])
			buf = append(buf, `,"score":`...)
			buf = jsonx.AppendFloat(buf, r.Score)
			buf = append(buf, '}')
		}
		buf = append(buf, `]}`...)
	}
	buf = append(buf, `]}`...)
	return append(buf, '\n')
}
