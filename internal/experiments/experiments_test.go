package experiments

import (
	"strings"
	"testing"

	"lumos5g/internal/core"
	"lumos5g/internal/env"
	"lumos5g/internal/features"
	"lumos5g/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed registry entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every paper artifact has an entry.
	for _, want := range []string{
		"fig1", "tab2", "tab3", "fig6", "tab5", "tab4", "tab10",
		"fig8", "fig9", "fig11", "fig13", "fig14",
		"tab7", "tab8", "fig16", "tab9", "transfer", "fig22", "fig23",
		"fig21", "a4",
		"horizon", "temporal", "sensitivity", "carrier", "classifier", "crossarea", "abr", "crowd", "lstm",
	} {
		if !ids[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("tab9")
	if err != nil || e.ID != "tab9" {
		t.Fatal("ByID(tab9)")
	}
	if _, err := ByID("tab99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestReportBasics(t *testing.T) {
	r := NewReport("x", "test artifact")
	r.Printf("value is %d", 42)
	r.Set("k", 1.5)
	if v, ok := r.Get("k"); !ok || v != 1.5 {
		t.Fatal("Get")
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("missing key should not be found")
	}
	s := r.String()
	if !strings.Contains(s, "test artifact") || !strings.Contains(s, "value is 42") {
		t.Fatalf("render: %s", s)
	}
	if !strings.Contains(r.ValuesString(), "k = 1.5") {
		t.Fatal("ValuesString")
	}
}

func TestOptionsProfiles(t *testing.T) {
	quick := Options{Profile: ProfileQuick}
	paper := Options{Profile: ProfilePaper}
	if quick.Campaign().WalkPasses >= paper.Campaign().WalkPasses {
		t.Fatal("paper campaign should be larger")
	}
	if quick.ModelScale().GBDT.Estimators >= paper.ModelScale().GBDT.Estimators {
		t.Fatal("paper GDBT should be larger")
	}
	if (Options{}).seed() != 1 || (Options{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting")
	}
}

// fastLab builds a lab with a deliberately tiny campaign and models so
// experiment plumbing can be tested quickly.
func fastLab() *Lab {
	l := NewLab(Options{Profile: ProfileQuick, Seed: 1})
	// Pre-populate the dataset caches with a small campaign so Area()
	// never triggers the full quick-profile simulation.
	cfg := sim.Config{Seed: 1, WalkPasses: 3, DrivePasses: 3, StationarySessions: 2, BackgroundUEProb: 0.12}
	for _, name := range []string{"Airport", "Intersection", "Loop"} {
		a, err := env.AreaByName(name)
		if err != nil {
			panic(err)
		}
		raw := sim.RunArea(a, cfg)
		clean, _ := raw.QualityFilter()
		l.cleaned[name] = clean
	}
	return l
}

func TestCheapExperimentsRun(t *testing.T) {
	l := fastLab()
	for _, id := range []string{"fig1", "tab2", "tab3", "fig6", "fig8", "fig9", "fig11", "fig13", "fig14", "fig21"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep := e.Run(l)
		if rep == nil || len(rep.Lines) == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestTab5AndFactorTables(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical tables take a few seconds")
	}
	l := fastLab()
	rep := Tab5(l)
	if v, ok := rep.Get("Airport/ttest"); !ok || v < 0.3 {
		t.Fatalf("indoor pairwise t-test fraction = %v (want the §4.1 'location matters' signal)", v)
	}
	rep4 := Tab4(l)
	red, ok := rep4.Get("rfRMSEReduction")
	if !ok || red < 0.1 {
		t.Fatalf("mobility factors should reduce RF RMSE markedly, got %v", red)
	}
	cv1, _ := rep4.Get("geolocation/cvMean")
	cv2, _ := rep4.Get("geo+mobility/cvMean")
	if cv2 >= cv1 {
		t.Fatalf("direction conditioning should shrink CV: %v -> %v", cv1, cv2)
	}
	sp1, _ := rep4.Get("geolocation/spearman")
	sp2, _ := rep4.Get("geo+mobility/spearman")
	if sp2 <= sp1 {
		t.Fatalf("direction grouping should raise Spearman: %v -> %v", sp1, sp2)
	}
}

func TestFig9DirectionClaims(t *testing.T) {
	l := fastLab()
	rep := Fig9(l)
	nb, _ := rep.Get("spearman/NB")
	cross, _ := rep.Get("spearman/cross")
	if nb < 0.3 {
		t.Fatalf("same-direction Spearman = %v", nb)
	}
	if cross > nb-0.2 {
		t.Fatalf("cross-direction (%v) should sit far below same-direction (%v)", cross, nb)
	}
}

func TestFig14SpeedClaims(t *testing.T) {
	l := fastLab()
	rep := Fig14(l)
	slow, ok1 := rep.Get("driving/median/0")
	fast, ok2 := rep.Get("driving/median/30")
	if !ok1 || !ok2 {
		t.Skip("driving bins too sparse in tiny campaign")
	}
	if fast >= slow/2 {
		t.Fatalf("driving collapse missing: <5 km/h median %v vs 30-35 km/h %v", slow, fast)
	}
	w3, ok3 := rep.Get("walking/median/3")
	w6, ok4 := rep.Get("walking/median/6")
	if ok3 && ok4 {
		ratio := w6 / w3
		if ratio < 0.6 || ratio > 1.6 {
			t.Fatalf("walking speed should barely matter: %v vs %v", w3, w6)
		}
	}
}

func TestFig21CongestionClaims(t *testing.T) {
	l := fastLab()
	rep := Fig21(l)
	ratio, ok := rep.Get("halvingRatio")
	if !ok {
		t.Fatal("halving ratio missing")
	}
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("UE2 joining should halve UE1: ratio %v", ratio)
	}
}

func TestA4Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("A4 trains several models")
	}
	l := fastLab()
	rep := A4(l)
	for _, model := range []string{"KNN", "OK", "RF"} {
		ratio, ok := rep.Get(model + "/ratio")
		if !ok {
			t.Fatalf("%s ratio missing", model)
		}
		if ratio < 2 {
			t.Fatalf("%s: 5G should be far less location-predictable than 4G, ratio %v", model, ratio)
		}
	}
}

func TestLabEvalCaches(t *testing.T) {
	l := fastLab()
	// Use a cheap model+group so this stays fast.
	r1 := l.Eval("Airport", features.GroupL, core.ModelKNN)
	r2 := l.Eval("Airport", features.GroupL, core.ModelKNN)
	if r1.MAE != r2.MAE {
		t.Fatal("cache should return identical results")
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions train models")
	}
	l := fastLab()
	// Shrink the heavy models by evaluating through a local scale: the
	// extension experiments read l.Scale(), so run them on the quick
	// profile but with the tiny datasets injected by fastLab.
	for _, id := range []string{"sensitivity", "carrier", "classifier", "temporal"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep := e.Run(l)
		if rep == nil || len(rep.Lines) == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
	if g, ok := Carrier(l).Get("gain"); ok && g < 1.05 {
		t.Fatalf("carrier panel load should help, gain %v", g)
	}
}

func TestFig11SouthPanelDip(t *testing.T) {
	l := fastLab()
	rep := Fig11(l)
	near, ok1 := rep.Get("south/median/25")
	dip, ok2 := rep.Get("south/median/50")
	rec, ok3 := rep.Get("south/median/100")
	if !ok1 || !ok2 || !ok3 {
		t.Skip("south-panel bins too sparse in tiny campaign")
	}
	if dip >= near/2 {
		t.Fatalf("booths should dip throughput at 50-75 m: near %v vs dip %v", near, dip)
	}
	if rec <= dip*1.5 {
		t.Fatalf("throughput should recover beyond 100 m (Fig 11b): dip %v vs %v", dip, rec)
	}
}

func TestFig8HeadOnAdvantage(t *testing.T) {
	l := fastLab()
	rep := Fig8(l)
	adv, ok := rep.Get("headOnAdvantage")
	if !ok {
		t.Skip("angle bins too sparse")
	}
	if adv < 1.5 {
		t.Fatalf("head-on should clearly beat walking-away: %vx", adv)
	}
}

func TestCrowdParticipationPays(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several GDBTs")
	}
	l := fastLab()
	rep := Crowd(l)
	gain, ok := rep.Get("participationGain")
	if !ok {
		t.Skip("too few passes")
	}
	if gain < 1.0 {
		t.Fatalf("more passes should not hurt: gain %v", gain)
	}
}
