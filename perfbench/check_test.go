package main

import (
	"testing"

	"upkit/internal/coap"
	"upkit/internal/manifest"
)

// flipExchanger flips one bit of the named block it is told to corrupt
// on the way back to the client.
type flipExchanger struct {
	inner coap.Exchanger
	block uint32
}

func (f flipExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	resp, err := f.inner.Exchange(req)
	if err != nil || req.Path() != coap.PathBlocks {
		return resp, err
	}
	raw, _ := req.Option(coap.OptBlock2)
	if b, err := coap.ParseBlock(raw); err == nil && b.Num == f.block && len(resp.Payload) > 0 {
		resp.Payload[len(resp.Payload)/2] ^= 0x01
	}
	return resp, nil
}

func smallStorm() stormSpec {
	spec := serveStorm
	spec.imageKiB, spec.live, spec.setupReps = 8, 2, 1
	return spec
}

func TestOutputCheckCatchesFlippedBlockByte(t *testing.T) {
	o, err := buildOrigin(smallStorm(), 11, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()

	var clean sessionOut
	buf, name, err := o.serve(0xA1, 7, 1, nil, &clean)
	if err != nil {
		t.Fatalf("clean session: %v", err)
	}
	if err := checkPayload(name, buf); err != nil {
		t.Fatalf("clean session failed its check: %v", err)
	}
	if _, err := checkManifest(o.suite, o.vendor.PublicKey(), o.update.PublicKey(), clean.manifest, clean.tok); err != nil {
		t.Fatalf("clean manifest failed its check: %v", err)
	}

	o.ex = flipExchanger{inner: o.ex, block: 1}
	var bad sessionOut
	buf, name, err = o.serve(0xA2, 8, 1, nil, &bad)
	if err != nil {
		t.Fatalf("corrupted session should still complete its transfer: %v", err)
	}
	if err := checkPayload(name, buf); err == nil {
		t.Fatal("a flipped block byte passed the payload check")
	}
}

func TestManifestCheckCatchesTamperingAndRebinding(t *testing.T) {
	o, err := buildOrigin(smallStorm(), 12, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	var s sessionOut
	if _, _, err := o.serve(0xB1, 9, 2, nil, &s); err != nil {
		t.Fatal(err)
	}
	check := func(raw []byte, tok manifest.DeviceToken) error {
		_, err := checkManifest(o.suite, o.vendor.PublicKey(), o.update.PublicKey(), raw, tok)
		return err
	}
	if err := check(s.manifest, s.tok); err != nil {
		t.Fatalf("served manifest failed its check: %v", err)
	}
	flipped := append([]byte(nil), s.manifest...)
	flipped[len(flipped)-1] ^= 0x80 // inside the server signature
	if check(flipped, s.tok) == nil {
		t.Error("a flipped signature byte passed the manifest check")
	}
	other := s.tok
	other.Nonce++
	if check(s.manifest, other) == nil {
		t.Error("a manifest bound to another nonce passed the check")
	}
}
