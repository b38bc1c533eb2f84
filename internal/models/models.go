// Package models builds the seven evaluation workloads of the Capuchin
// paper (Table 1) as training graphs: VGG16, ResNet-50, ResNet-152,
// InceptionV3, InceptionV4, DenseNet-121 and BERT-Base. Each builder is
// parameterized by batch size and the graph/eager build options, and uses
// synthetic inputs exactly as the paper does for the CNNs (§6.1).
package models

import (
	"fmt"
	"sort"

	"capuchin/internal/graph"
	"capuchin/internal/ops"
	"capuchin/internal/tensor"
)

// BuildFunc constructs a model's training graph for one batch size.
type BuildFunc func(batch int64, opt graph.BuildOptions) (*graph.Graph, error)

// BuildSeqFunc constructs a model's training graph for a batch size and
// an explicit sequence length (token positions for BERT, unrolled
// timesteps for the recurrent models).
type BuildSeqFunc func(batch, seq int64, opt graph.BuildOptions) (*graph.Graph, error)

// Spec describes one workload.
type Spec struct {
	Name string
	// Build constructs the training graph.
	Build BuildFunc
	// BuildSeq constructs the graph at an explicit sequence length; nil
	// for models without a sequence axis. Build(batch) is always
	// equivalent to BuildSeq(batch, DefaultSeq).
	BuildSeq BuildSeqFunc
	// DefaultSeq is the sequence length Build uses (0 = no sequence axis).
	DefaultSeq int64
	// SeqBuckets are the padded sequence-length buckets a dynamic
	// schedule samples from; always contains DefaultSeq.
	SeqBuckets []int64
	// PaperMaxBatchTF is the maximum batch size the paper reports for
	// original TensorFlow in graph mode (Table 2/3), recorded for the
	// experiment reports.
	PaperMaxBatchTF int64
	// Eager marks the workloads the paper evaluates in eager mode too.
	Eager bool
}

// BuildShaped builds the graph for one shape signature, routing through
// BuildSeq when a sequence length is requested. seq == 0 means "the
// model's default shape" for every workload.
func (s Spec) BuildShaped(batch, seq int64, opt graph.BuildOptions) (*graph.Graph, error) {
	if seq == 0 || s.BuildSeq == nil {
		return s.Build(batch, opt)
	}
	return s.BuildSeq(batch, seq, opt)
}

// TemplateBatch is the sentinel batch size graph templates are built at:
// a prime larger than any dimension a model derives from anything but
// its batch. At this batch every batch-proportional dimension (batch,
// batch*seq, batch*maskLen) is a multiple of it and no other dimension
// is, which is the rule graph.Template.Instantiate rescales by.
const TemplateBatch = 1_000_003

// Template builds the model's training graph at sequence length seq
// (0 = the default shape, as for BuildShaped) once, at TemplateBatch, for
// a caller that needs it at many batch sizes: each Instantiate then
// costs a copy instead of a build. A single graph is cheaper from
// BuildShaped.
func (s Spec) Template(seq int64, opt graph.BuildOptions) (*graph.Template, error) {
	g, err := s.BuildShaped(TemplateBatch, seq, opt)
	if err != nil {
		return nil, err
	}
	return graph.NewTemplate(g, TemplateBatch)
}

var registry = map[string]Spec{
	"vgg16":       {Name: "vgg16", Build: VGG16, PaperMaxBatchTF: 228},
	"resnet50":    {Name: "resnet50", Build: ResNet50, PaperMaxBatchTF: 190, Eager: true},
	"resnet152":   {Name: "resnet152", Build: ResNet152, PaperMaxBatchTF: 86},
	"inceptionv3": {Name: "inceptionv3", Build: InceptionV3, PaperMaxBatchTF: 160},
	"inceptionv4": {Name: "inceptionv4", Build: InceptionV4, PaperMaxBatchTF: 88},
	"densenet":    {Name: "densenet", Build: DenseNet121, PaperMaxBatchTF: 70, Eager: true},
	"bert": {Name: "bert", Build: BERTBase, PaperMaxBatchTF: 64,
		BuildSeq: BERTBaseSeq, DefaultSeq: bertSeqLen, SeqBuckets: []int64{128, 256, bertSeqLen}},
	// lstm and mobilenetv2 extend the zoo beyond the paper's table: the
	// speech/NLP recurrent workloads its §3.2 says behave the same way,
	// and the depthwise-separable CNN family whose cost structure defeats
	// layer-type heuristics (§3.1).
	"lstm": {Name: "lstm", Build: LSTM, Eager: true,
		BuildSeq: LSTMSeq, DefaultSeq: lstmSteps, SeqBuckets: []int64{32, 64, lstmSteps}},
	"mobilenetv2": {Name: "mobilenetv2", Build: MobileNetV2, Eager: true},
	"alexnet":     {Name: "alexnet", Build: AlexNet, Eager: true},
	"gru": {Name: "gru", Build: GRU, Eager: true,
		BuildSeq: GRUSeq, DefaultSeq: gruSteps, SeqBuckets: []int64{32, 64, gruSteps}},
}

// Get returns the spec for a model name.
func Get(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered models in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// net wraps a Builder with layer helpers shared by the CNN models.
type net struct {
	b *graph.Builder
}

// convBias is convolution + bias (VGG-style, no batch norm).
func (n *net) convBias(name string, x *tensor.Tensor, outC, k, stride, pad int64) *tensor.Tensor {
	w := n.b.Variable(name+"_w", tensor.Shape{outC, x.Shape[1], k, k})
	bias := n.b.Variable(name+"_b", tensor.Shape{outC})
	y := n.b.Apply1(name, ops.Conv2D{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}, x, w)
	return n.b.Apply1(name+"_bias", ops.BiasAdd{}, y, bias)
}

// convBN is convolution + batch norm (no bias), the modern CNN idiom.
func (n *net) convBN(name string, x *tensor.Tensor, outC, kh, kw, stride, padH, padW int64) *tensor.Tensor {
	w := n.b.Variable(name+"_w", tensor.Shape{outC, x.Shape[1], kh, kw})
	y := n.b.Apply1(name, ops.Conv2D{StrideH: stride, StrideW: stride, PadH: padH, PadW: padW}, x, w)
	scale := n.b.Variable(name+"_bn_scale", tensor.Shape{outC})
	offset := n.b.Variable(name+"_bn_offset", tensor.Shape{outC})
	return n.b.Apply1(name+"_bn", ops.BatchNorm{}, y, scale, offset)
}

// convBNReLU is the conv-bn-relu triple.
func (n *net) convBNReLU(name string, x *tensor.Tensor, outC, kh, kw, stride, padH, padW int64) *tensor.Tensor {
	return n.relu(name, n.convBN(name, x, outC, kh, kw, stride, padH, padW))
}

func (n *net) relu(name string, x *tensor.Tensor) *tensor.Tensor {
	return n.b.Apply1(name+"_relu", ops.ReLU, x)
}

func (n *net) maxPool(name string, x *tensor.Tensor, k, stride, pad int64) *tensor.Tensor {
	return n.b.Apply1(name, ops.Pool{Kind: ops.MaxPoolKind, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}, x)
}

func (n *net) avgPool(name string, x *tensor.Tensor, k, stride, pad int64) *tensor.Tensor {
	return n.b.Apply1(name, ops.Pool{Kind: ops.AvgPoolKind, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}, x)
}

func (n *net) globalAvgPool(name string, x *tensor.Tensor) *tensor.Tensor {
	return n.b.Apply1(name, ops.Pool{Kind: ops.AvgPoolKind}, x)
}

// classifier flattens, applies a dense layer to numClasses, and attaches
// the softmax cross-entropy loss against synthetic labels.
func (n *net) classifier(x *tensor.Tensor, batch, numClasses int64) *tensor.Tensor {
	flat := n.b.Apply1("flatten", ops.Reshape{To: tensor.Shape{batch, x.Shape.Elems() / batch}}, x)
	w := n.b.Variable("fc_w", tensor.Shape{flat.Shape[1], numClasses})
	bias := n.b.Variable("fc_b", tensor.Shape{numClasses})
	logits := n.b.Apply1("fc", ops.MatMul{}, flat, w)
	logits = n.b.Apply1("fc_bias", ops.BiasAdd{}, logits, bias)
	labels := n.b.Input("labels", tensor.Shape{batch, numClasses}, tensor.Float32)
	return n.b.Apply1("loss", ops.SoftmaxCrossEntropy{}, logits, labels)
}

// dense is matmul + bias over a 2-D activation.
func (n *net) dense(name string, x *tensor.Tensor, units int64) *tensor.Tensor {
	w := n.b.Variable(name+"_w", tensor.Shape{x.Shape[1], units})
	bias := n.b.Variable(name+"_b", tensor.Shape{units})
	y := n.b.Apply1(name, ops.MatMul{}, x, w)
	return n.b.Apply1(name+"_bias", ops.BiasAdd{}, y, bias)
}
