package predictor

import "testing"

func TestDefaultValidateParamsArePaperTuning(t *testing.T) {
	p := DefaultValidateParams()
	if p.InitConf != 3 || p.Threshold != 4 || p.Inc != 1 || p.Dec != 1 || ValidateSatMax != 7 {
		t.Fatalf("default tuning %+v, want 3-4-1-1-7", p)
	}
}

func TestColdLineDoesNotValidate(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	if v.OnTSDetect(0x1000) {
		t.Fatal("cold confidence 3 < threshold 4 must suppress the validate")
	}
}

func TestExternalReqTrainsUp(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	v.OnTSDetect(0x1000)    // suppressed, machine in TS-Detected
	v.OnExternalReq(0x1000) // remote miss observed while silent: +1
	if got := v.Confidence(0x1000); got != 4 {
		t.Fatalf("confidence = %d, want 4", got)
	}
	if !v.OnTSDetect(0x1000) {
		t.Fatal("after useful evidence the validate must be sent")
	}
}

func TestExternalReqOutsideTSDetectedIgnored(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	v.OnExternalReq(0x1000) // machine in Start: no effect
	if got := v.Confidence(0x1000); got != 3 {
		t.Fatalf("confidence = %d, want 3 (unchanged)", got)
	}
}

func TestUsefulResponseContinuousTraining(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	// Bring the line to validating confidence.
	v.OnTSDetect(0x40)
	v.OnExternalReq(0x40) // conf 4
	// Validate sent; later the intermediate-value store upgrades and
	// the useful snoop response is asserted (a consumer read the
	// validated line): train up.
	if !v.OnTSDetect(0x40) {
		t.Fatal("expected validate at conf 4")
	}
	v.OnIntermediateStoreVisible(0x40)
	v.OnUsefulResponse(0x40, true)
	if got := v.Confidence(0x40); got != 5 {
		t.Fatalf("confidence = %d, want 5", got)
	}
	// Nobody consumed the next validates: useless responses train
	// down until the threshold is crossed and validates stop.
	for i := 0; i < 2; i++ {
		v.OnTSDetect(0x40)
		v.OnIntermediateStoreVisible(0x40)
		v.OnUsefulResponse(0x40, false)
	}
	if got := v.Confidence(0x40); got != 3 {
		t.Fatalf("confidence = %d, want 3", got)
	}
	if v.OnTSDetect(0x40) {
		t.Fatal("validates must stop below threshold")
	}
}

func TestUsefulResponseRequiresUpgradePhase(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	v.OnUsefulResponse(0x40, false) // machine in Start: ignored
	if got := v.Confidence(0x40); got != 3 {
		t.Fatalf("confidence = %d, want 3", got)
	}
}

func TestSilentlyLocalStoreNoTraining(t *testing.T) {
	// With the validate suppressed the line stays M, the next store is
	// invisible, and no confidence change happens (§2.4.1: training in
	// suppressed mode comes only from observed misses).
	v := NewValidatePredictor(DefaultValidateParams())
	v.OnTSDetect(0x40)
	v.OnIntermediateStoreSilentlyLocal(0x40)
	if got := v.Confidence(0x40); got != 3 {
		t.Fatalf("confidence = %d, want 3", got)
	}
	// And the machine is back in Start: a late useful response is
	// ignored.
	v.OnUsefulResponse(0x40, true)
	if got := v.Confidence(0x40); got != 3 {
		t.Fatalf("confidence = %d, want 3", got)
	}
}

func TestConfidenceSaturates(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	for i := 0; i < 20; i++ {
		v.OnTSDetect(0x40)
		v.OnExternalReq(0x40)
	}
	if got := v.Confidence(0x40); got != 7 {
		t.Fatalf("confidence = %d, want saturation at 7", got)
	}
	// Floor at zero.
	for i := 0; i < 20; i++ {
		v.OnTSDetect(0x40)
		v.OnIntermediateStoreVisible(0x40)
		v.OnUsefulResponse(0x40, false)
	}
	if got := v.Confidence(0x40); got != 0 {
		t.Fatalf("confidence = %d, want floor at 0", got)
	}
}

func TestEvictResetsToCold(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	v.OnTSDetect(0x40)
	v.OnExternalReq(0x40) // conf 4
	v.Evict(0x40)
	if got := v.Confidence(0x40); got != 3 {
		t.Fatalf("confidence after evict = %d, want cold 3", got)
	}
	if v.Entries() != 0 {
		t.Fatalf("entries = %d, want 0", v.Entries())
	}
}

func TestPerLineIsolation(t *testing.T) {
	v := NewValidatePredictor(DefaultValidateParams())
	v.OnTSDetect(0x000)
	v.OnExternalReq(0x000)
	if v.Confidence(0x040) != 3 {
		t.Fatal("neighboring line contaminated")
	}
	// Same line, different offsets, shares the entry.
	v.OnTSDetect(0x008)
	v.OnExternalReq(0x010)
	if v.Confidence(0x000) != 5 {
		t.Fatalf("line aliasing broken: conf=%d", v.Confidence(0x000))
	}
}
