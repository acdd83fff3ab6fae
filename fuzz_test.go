package lumos5g

import (
	"bytes"
	"testing"
)

// FuzzLoadPredictor hardens the artifact loaders: corrupted, truncated,
// or hostile envelope bytes must produce a typed error or a working
// model — never a panic or an unbounded allocation. Both loaders are
// exercised on every input since real deployments sniff artifact kind
// from the same byte stream.
func FuzzLoadPredictor(f *testing.F) {
	// Seed with genuine artifacts of both kinds plus canonical damage.
	a, err := AreaByName("Airport")
	if err != nil {
		f.Fatal(err)
	}
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	sc := Scale{Seed: 1}
	sc.GBDT.Estimators = 10
	sc.GBDT.MaxDepth = 3
	pred, err := Train(d, GroupL, ModelGDBT, sc)
	if err != nil {
		f.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := pred.Save(&pbuf); err != nil {
		f.Fatal(err)
	}
	chain, err := TrainFallbackChain(d, []FeatureGroup{GroupL}, ModelGDBT, sc)
	if err != nil {
		f.Fatal(err)
	}
	var cbuf bytes.Buffer
	if err := chain.Save(&cbuf); err != nil {
		f.Fatal(err)
	}

	f.Add(pbuf.Bytes())
	f.Add(cbuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("L5GP"))
	f.Add([]byte("L5GC\x00\x01\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add(pbuf.Bytes()[:pbuf.Len()/2])
	f.Add(cbuf.Bytes()[:cbuf.Len()-1])
	mut := append([]byte(nil), pbuf.Bytes()...)
	mut[len(mut)/2] ^= 0x55
	f.Add(mut)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if p, err := LoadPredictor(bytes.NewReader(raw)); err == nil {
			// Anything accepted must be servable.
			x := make([]float64, len(p.FeatureNames()))
			_ = p.Predict(x)
		}
		if c, err := LoadChain(bytes.NewReader(raw)); err == nil {
			_ = c.PredictInterval(nil)
		}
	})
}
