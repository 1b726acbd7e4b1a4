package topi

import (
	"repro/internal/relay"
	"repro/internal/tensor"
)

// ConvBy launches nn.conv2d or qnn.conv2d by the given strategy instead of
// the rule's, for the zoo test of package topi_test: it builds the model zoo,
// and internal/models imports topi.
func ConvBy(im2col bool, op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (*tensor.Tensor, error) {
	return convBy(im2col)(op, args, attrs, out)
}
