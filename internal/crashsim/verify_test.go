package crashsim

import (
	"fmt"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/nvm"
)

// TestVerifyImagePhantomBeforeLost crafts a golden image that disagrees
// with a clean PM image in both directions: one persisted block the
// golden model never committed (a phantom) and one committed block that
// never persisted (lost, with zero plaintext so no other check trips
// over it). The lost block sits below the phantom in address order, so
// a walk that reported in plain address order would name it first;
// check 2 must count both and report the phantom first.
func TestVerifyImagePhantomBeforeLost(t *testing.T) {
	mc, err := nvm.NewController(config.Default(), []byte("verify-image-key"))
	if err != nil {
		t.Fatal(err)
	}
	kept, lost, phantom := addr.BlockOf(0x1000), addr.BlockOf(0x1040), addr.BlockOf(0x8000)
	var keptData, phantomData [addr.BlockBytes]byte
	keptData[0], phantomData[0] = 1, 2
	for b, data := range map[addr.Block]*[addr.BlockBytes]byte{kept: &keptData, phantom: &phantomData} {
		if _, err := mc.PersistBlock(b, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	mc.CompleteSweep()
	golden := map[addr.Block][addr.BlockBytes]byte{kept: keptData, lost: {}}

	var res VerifyResult
	if err := new(verifier).verifyImage(mc, golden, &res); err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 {
		t.Errorf("Failures = %d, want 2 (one phantom, one lost): first %q", res.Failures, res.FirstBad)
	}
	if want := fmt.Sprintf("phantom block %#x persisted but never committed", phantom.Addr()); res.FirstBad != want {
		t.Errorf("FirstBad = %q, want %q", res.FirstBad, want)
	}
	if res.BlocksChecked != 2 {
		t.Errorf("BlocksChecked = %d, want 2", res.BlocksChecked)
	}
}
