//go:build !amd64

package video

// blendVec: no vector body, blendRows' Go loop does every lane.
func blendVec(out []float32, a0, b0, a1, b1 []float64, wy0, wy1 float64) int { return 0 }

// rowProductsVec: no vector body, rowProducts' Go loop does every column.
func rowProductsVec(a, b []float64, row []float32, cols []colTap) bool { return false }
