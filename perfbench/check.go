package main

import (
	"crypto/sha256"
	"fmt"

	"upkit/internal/dist"
	"upkit/internal/manifest"
	"upkit/internal/security"
)

// checkPayload verifies that reassembled blocks hash to the content
// name the origin announced for them.
func checkPayload(name dist.Name, payload []byte) error {
	if got := dist.Name(sha256.Sum256(payload)); got != name {
		return fmt.Errorf("payload of %d bytes hashes to %s, announced %s", len(payload), got, name)
	}
	return nil
}

// checkManifest parses a served manifest and verifies its double
// signature and its binding to the requesting device token.
func checkManifest(suite security.Suite, vendor, server *security.PublicKey, raw []byte, tok manifest.DeviceToken) (*manifest.Manifest, error) {
	m, err := manifest.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if !m.VerifyVendorSig(suite, vendor) {
		return nil, fmt.Errorf("manifest v%d: vendor signature does not verify", m.Version)
	}
	if !m.VerifyServerSig(suite, server) {
		return nil, fmt.Errorf("manifest v%d: server signature does not verify", m.Version)
	}
	if m.DeviceID != tok.DeviceID || m.Nonce != tok.Nonce {
		return nil, fmt.Errorf("manifest v%d bound to device %#x nonce %#x, requested by %#x nonce %#x",
			m.Version, m.DeviceID, m.Nonce, tok.DeviceID, tok.Nonce)
	}
	return m, nil
}

// checkLog collects output-check failures, keeping a bounded sample of
// messages.
type checkLog struct {
	failures int
	sample   []string
}

func (l *checkLog) fail(format string, args ...any) {
	l.failures++
	if len(l.sample) < 16 {
		l.sample = append(l.sample, fmt.Sprintf(format, args...))
	}
}
