package app

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/video"
)

// Config selects model sizes and per-model build options. Per the paper's
// §5.1 computation scheduling, each model can target a different device
// permutation (e.g. object detection on CPU-only for the pipeline prototype
// while anti-spoofing keeps CPU+APU).
type Config struct {
	Size models.Size
	// Per-model build options (UseNIR / NIRDevices select the target).
	Detection runtime.BuildOptions
	AntiSpoof runtime.BuildOptions
	Emotion   runtime.BuildOptions
	// Executor selects the execution strategy for all three graph modules;
	// the zero value is ExecutorAuto. References for differential checks set
	// ExecutorInterp.
	Executor runtime.ExecutorKind
	// ScoreThreshold for object detections.
	ScoreThreshold float64
}

// DefaultConfig runs all three models through the BYOC flow on CPU+APU at
// the lite preset.
func DefaultConfig() Config {
	byoc := runtime.BuildOptions{OptLevel: 3, UseNIR: true}
	return Config{
		Size:      models.SizeLite,
		Detection: byoc,
		AntiSpoof: byoc,
		Emotion:   byoc,
		// Synthetic weights produce uncalibrated logits near zero, so class
		// scores cluster around 0.5; the gate keeps above-median detections.
		ScoreThreshold: 0.5,
	}
}

// FaceResult is the verdict for one candidate face.
type FaceResult struct {
	Box        video.Rect
	SpoofScore float64
	Real       bool
	Emotion    string
	Confidence float64
}

// StageTiming is the simulated cost of each pipeline stage for one frame.
type StageTiming struct {
	Detect    soc.Seconds
	AntiSpoof soc.Seconds
	Emotion   soc.Seconds
}

// Total sums the stage costs (sequential execution).
func (t StageTiming) Total() soc.Seconds { return t.Detect + t.AntiSpoof + t.Emotion }

// FrameResult is the showcase output for one frame.
type FrameResult struct {
	Frame   int
	Objects []Detection
	Faces   []FaceResult
	Timing  StageTiming
}

// Showcase bundles the three compiled models plus the face detector —
// Listing 5's build_model_on_TVM output.
//
// Each stage owns the tensors its model reads, allocated once here and
// refilled for every frame or face, so a frame allocates no model input; the
// detect stage also keeps its SSD decode rows and the face detector's grid
// buffers. No buffer is shared between stages: RunLive may run the three stages on three
// goroutines (each on a different frame), but one stage must not run twice at
// once — its second caller would overwrite the input the first is reading.
type Showcase struct {
	cfg     Config
	detGM   *runtime.GraphModule
	spoofGM *runtime.GraphModule
	emoGM   *runtime.GraphModule
	faces   *FaceDetector
	// Detect stage: the resized frame, and the quantized copy the model
	// reads (nil for a float detector, which reads detIn itself).
	detIn  *tensor.Tensor
	detInQ *tensor.Tensor
	// Detect stage: every SSD row that passes the score gate, sorted; only
	// the top rows are copied out into FrameResult.Objects.
	ssdRows []Detection
	// SpoofStage and EmotionStage: the face crop at the model's input size.
	spoofIn *tensor.Tensor
	emoIn   *tensor.Tensor
	// Anti-spoofing calibration: synthetic weights are uncalibrated, so the
	// decision boundary is fitted at build time against reference live and
	// printed-photo patches (midpoint threshold + polarity).
	spoofThreshold float64
	spoofPolarity  float64
}

// New builds all three models (each through its own frontend) and compiles
// them with the configured options.
func New(cfg Config) (*Showcase, error) {
	detMod, err := models.BuildMobileNetSSDQuant(cfg.Size)
	if err != nil {
		return nil, fmt.Errorf("app: building object detector: %w", err)
	}
	spoofMod, err := models.BuildDeePixBiS(cfg.Size)
	if err != nil {
		return nil, fmt.Errorf("app: building anti-spoofing model: %w", err)
	}
	emoMod, err := models.BuildEmotion(cfg.Size)
	if err != nil {
		return nil, fmt.Errorf("app: building emotion model: %w", err)
	}
	detLib, err := runtime.Build(detMod, cfg.Detection)
	if err != nil {
		return nil, fmt.Errorf("app: compiling object detector: %w", err)
	}
	spoofLib, err := runtime.Build(spoofMod, cfg.AntiSpoof)
	if err != nil {
		return nil, fmt.Errorf("app: compiling anti-spoofing model: %w", err)
	}
	emoLib, err := runtime.Build(emoMod, cfg.Emotion)
	if err != nil {
		return nil, fmt.Errorf("app: compiling emotion model: %w", err)
	}
	s := &Showcase{
		cfg:     cfg,
		detGM:   runtime.NewGraphModule(detLib),
		spoofGM: runtime.NewGraphModule(spoofLib),
		emoGM:   runtime.NewGraphModule(emoLib),
		faces:   NewFaceDetector(),
		detIn:   tensor.New(tensor.Float32, models.InputShape(detMod)),
		spoofIn: tensor.New(tensor.Float32, models.InputShape(spoofMod)),
		emoIn:   tensor.New(tensor.Float32, models.InputShape(emoMod)),
	}
	if q := models.InputQuant(detMod); q != nil {
		s.detInQ = tensor.New(tensor.UInt8, s.detIn.Shape)
		s.detInQ.Quant = q
	}
	s.detGM.SetExecutor(cfg.Executor)
	s.spoofGM.SetExecutor(cfg.Executor)
	s.emoGM.SetExecutor(cfg.Executor)
	if err := s.calibrateSpoof(); err != nil {
		return nil, fmt.Errorf("app: calibrating anti-spoofing: %w", err)
	}
	return s, nil
}

// calibrateSpoof fits the liveness decision boundary: run the model on a
// reference live patch (bright, textured) and a reference print patch (flat,
// dimmer), set the threshold at the midpoint and the polarity from which
// side scores higher.
func (s *Showcase) calibrateSpoof() error {
	h, w := s.spoofIn.Shape[1], s.spoofIn.Shape[2]
	score := func(in *tensor.Tensor) (float64, error) {
		s.spoofGM.SetInput(s.spoofGM.InputNames()[0], in)
		if err := s.spoofGM.Run(); err != nil {
			return 0, err
		}
		return s.spoofGM.MustOutput(1).GetF(0), nil
	}
	live, err := score(video.RenderFacePatch(h, w, false, 0xCA11B))
	if err != nil {
		return err
	}
	spoof, err := score(video.RenderFacePatch(h, w, true, 0xCA11B))
	if err != nil {
		return err
	}
	s.spoofThreshold = (live + spoof) / 2
	s.spoofPolarity = 1
	if live < spoof {
		s.spoofPolarity = -1
	}
	return nil
}

// prepareDetInput resizes the frame to the detector resolution into the
// stage's own tensor and, for a quantized detector, quantizes each chunk of
// resized rows with the model's input parameters into the twin the model
// reads, in the same launch.
func (s *Showcase) prepareDetInput(img *tensor.Tensor) *tensor.Tensor {
	h, w := img.Shape[1], img.Shape[2]
	frame := video.Rect{X: 0, Y: 0, W: w, H: h}
	if s.detInQ == nil {
		video.CropResizeInto(s.detIn, img, frame)
		return s.detIn
	}
	video.CropResizeQuantizeInto(s.detInQ, s.detIn, img, frame)
	return s.detInQ
}

// DetectStage runs object detection + face detection + the overlap gate,
// returning the frame result seeded with object boxes and the candidate
// face boxes (Listing 5's first two conditions).
func (s *Showcase) DetectStage(f *video.Frame) (*FrameResult, []video.Rect, error) {
	res := &FrameResult{Frame: f.Index}
	frameH, frameW := f.Image.Shape[1], f.Image.Shape[2]
	s.detGM.SetInput(s.detGM.InputNames()[0], s.prepareDetInput(f.Image))
	if err := s.detGM.Run(); err != nil {
		return nil, nil, fmt.Errorf("app: object detection: %w", err)
	}
	res.Timing.Detect = s.detGM.LastProfile().Total()
	rows, err := decodeSSDRows(s.ssdRows, s.detGM.MustOutput(0), s.detGM.MustOutput(1),
		frameW, frameH, s.cfg.ScoreThreshold)
	if err != nil {
		return nil, nil, err
	}
	s.ssdRows = rows
	dets := make([]Detection, topCount(rows, 16))
	copy(dets, rows)
	res.Objects = dets

	var candidates []video.Rect
	for _, fb := range s.faces.Detect(f.Image) {
		for _, d := range dets {
			if video.Intersects(fb, d.Box) {
				candidates = append(candidates, fb)
				break
			}
		}
	}
	return res, candidates, nil
}

// SpoofStage judges every candidate face, accumulating results and cost into
// res.
func (s *Showcase) SpoofStage(f *video.Frame, res *FrameResult, candidates []video.Rect) error {
	for _, fb := range candidates {
		video.CropResizeInto(s.spoofIn, f.Image, fb)
		s.spoofGM.SetInput(s.spoofGM.InputNames()[0], s.spoofIn)
		if err := s.spoofGM.Run(); err != nil {
			return fmt.Errorf("app: anti-spoofing: %w", err)
		}
		res.Timing.AntiSpoof += s.spoofGM.LastProfile().Total()
		score := s.spoofGM.MustOutput(1).GetF(0)
		res.Faces = append(res.Faces, FaceResult{Box: fb, SpoofScore: score,
			Real: s.spoofPolarity*(score-s.spoofThreshold) >= 0})
	}
	return nil
}

// EmotionStage labels the real faces (Listing 5's gate: spoofed faces skip
// it).
func (s *Showcase) EmotionStage(f *video.Frame, res *FrameResult) error {
	for i := range res.Faces {
		fr := &res.Faces[i]
		if !fr.Real {
			continue
		}
		video.CropResizeInto(s.emoIn, f.Image, fr.Box)
		s.emoGM.SetInput(s.emoGM.InputNames()[0], s.emoIn)
		if err := s.emoGM.Run(); err != nil {
			return fmt.Errorf("app: emotion detection: %w", err)
		}
		res.Timing.Emotion += s.emoGM.LastProfile().Total()
		probs := s.emoGM.MustOutput(0)
		best := probs.ArgMax()
		fr.Emotion = models.EmotionLabels[best]
		fr.Confidence = probs.GetF(best)
	}
	return nil
}

// ProcessFrame runs the Figure 1 / Listing 5 flow for one frame.
func (s *Showcase) ProcessFrame(f *video.Frame) (*FrameResult, error) {
	res, candidates, err := s.DetectStage(f)
	if err != nil {
		return nil, err
	}
	if err := s.SpoofStage(f, res, candidates); err != nil {
		return nil, err
	}
	if err := s.EmotionStage(f, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Modules exposes the three graph modules (the pipeline scheduler profiles
// them individually).
func (s *Showcase) Modules() (det, spoof, emo *runtime.GraphModule) {
	return s.detGM, s.spoofGM, s.emoGM
}
