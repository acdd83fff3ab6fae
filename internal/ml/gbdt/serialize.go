package gbdt

import (
	"encoding/gob"
	"fmt"
	"io"

	"lumos5g/internal/ml/tree"
)

// modelDTO is the wire form of a fitted GDBT regressor — the payload a
// UE would download alongside a throughput map (§2.3's "downloadable ML
// models").
type modelDTO struct {
	Version      int
	Base         float64
	LearningRate float64
	NFeat        int
	FeatGain     []float64
	Trees        []tree.TreeDTO
	// Older artifacts also carry Edges, the training Binner's bin edges.
	// gob skips fields the struct lacks, so they load unchanged and the
	// edges are ignored: the compiled kernel takes its edges from the
	// trees' own splits. Save writes none, so a binary from before
	// derived edges serves what it saves on its slower float-compare
	// kernel (same predictions; DESIGN.md, "Serving fast path").
}

// wireVersion guards against loading incompatible payloads.
const wireVersion = 1

// Save serialises the fitted model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	if m.trees == nil {
		return fmt.Errorf("gbdt: cannot save an unfitted model")
	}
	dto := modelDTO{
		Version:      wireVersion,
		Base:         m.base,
		LearningRate: m.cfg.LearningRate,
		NFeat:        m.nFeat,
		FeatGain:     m.featGain,
		Trees:        make([]tree.TreeDTO, len(m.trees)),
	}
	for i, t := range m.trees {
		dto.Trees[i] = t.Export()
	}
	return gob.NewEncoder(w).Encode(dto)
}

// Load reconstructs a fitted model saved by Save.
func Load(r io.Reader) (*Model, error) {
	var dto modelDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("gbdt: decode: %w", err)
	}
	if dto.Version != wireVersion {
		return nil, fmt.Errorf("gbdt: unsupported model version %d", dto.Version)
	}
	if len(dto.Trees) == 0 || dto.NFeat <= 0 {
		return nil, fmt.Errorf("gbdt: malformed payload")
	}
	m := &Model{
		cfg:      Config{LearningRate: dto.LearningRate, Estimators: len(dto.Trees)}.withDefaults(),
		base:     dto.Base,
		nFeat:    dto.NFeat,
		featGain: dto.FeatGain,
	}
	m.cfg.LearningRate = dto.LearningRate
	for i, td := range dto.Trees {
		t, err := tree.Import(td)
		if err != nil {
			return nil, fmt.Errorf("gbdt: tree %d: %w", i, err)
		}
		m.trees = append(m.trees, t)
	}
	comp, err := compileModel(m.trees, m.nFeat, m.base, m.cfg.LearningRate)
	if err != nil {
		return nil, fmt.Errorf("gbdt: compile: %w", err)
	}
	m.comp = comp
	return m, nil
}

// NumFeatures returns the trained feature dimensionality.
func (m *Model) NumFeatures() int { return m.nFeat }
