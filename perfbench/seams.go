package main

import (
	"upkit/internal/coap"
	"upkit/internal/security"
	"upkit/internal/updateserver"
	"upkit/internal/vendorserver"
)

// Wrappers around the program's existing seams. The traced run installs
// them to time each layer; the untraced run installs none, so the
// end-to-end figures measure the unmodified program.

// tracedSuite times the update server's per-request ECDSA signature.
type tracedSuite struct {
	security.Suite
	t *Tracer
}

func (s tracedSuite) Sign(priv *security.PrivateKey, digest security.Digest) (security.Signature, error) {
	id := s.t.Begin("security.sign")
	defer s.t.End(id)
	return s.Suite.Sign(priv, digest)
}

// tracedStore times release-store reads and publishes.
type tracedStore struct {
	inner updateserver.ReleaseStore
	t     *Tracer
}

func (s tracedStore) Publish(img *vendorserver.Image) error {
	id := s.t.Begin("updateserver.publish")
	defer s.t.End(id)
	return s.inner.Publish(img)
}

func (s tracedStore) Latest(appID uint32) (*vendorserver.Image, bool) {
	id := s.t.Begin("updateserver.store")
	defer s.t.End(id)
	return s.inner.Latest(appID)
}

func (s tracedStore) ByVersion(appID uint32, v uint16) (*vendorserver.Image, bool) {
	id := s.t.Begin("updateserver.store")
	defer s.t.End(id)
	return s.inner.ByVersion(appID, v)
}

func (s tracedStore) Prune(n int) []uint32 {
	id := s.t.Begin("updateserver.store")
	defer s.t.End(id)
	return s.inner.Prune(n)
}

func (s tracedStore) Apps() []uint32 { return s.inner.Apps() }

func (s tracedStore) Snapshot(appID uint32) []*vendorserver.Image {
	return s.inner.Snapshot(appID)
}

func (s tracedStore) Stats() updateserver.StoreStats { return s.inner.Stats() }

// tracedExchanger times one device-side CoAP exchange.
type tracedExchanger struct {
	inner coap.Exchanger
	t     *Tracer
}

func (e tracedExchanger) Exchange(req *coap.Message) (*coap.Message, error) {
	id := e.t.Begin("coap.exchange")
	defer e.t.End(id)
	return e.inner.Exchange(req)
}

// originSpan names the origin handler's span after the request path.
func originSpan(req *coap.Message) string {
	switch req.Path() {
	case coap.PathRequest:
		return "coap.origin.request"
	case coap.PathImage:
		return "coap.origin.image"
	case coap.PathName:
		return "coap.origin.name"
	case coap.PathBlocks:
		return "coap.origin.blocks"
	case coap.PathVersion:
		return "coap.origin.version"
	}
	return "coap.origin.other"
}

// traceHandler times a CoAP handler under the span name spanOf picks.
func traceHandler(t *Tracer, spanOf func(*coap.Message) string, h coap.Handler) coap.Handler {
	if t == nil {
		return h
	}
	return func(req *coap.Message) *coap.Message {
		id := t.Begin(spanOf(req))
		defer t.End(id)
		return h(req)
	}
}

// traceClient wraps a pull client's exchangers, and points the link
// exchangers that reach the origin directly at origin (the traced origin
// handler), so every exchange and every origin call of one device update
// is recorded. Exchangers that reach a proxy already carry a traced
// handler from the topology's set-up.
func traceClient(t *Tracer, c *coap.PullClient, origin coap.Handler) {
	if t == nil {
		return
	}
	toOrigin := func(ex coap.Exchanger) {
		if lx, ok := ex.(*coap.LinkExchanger); ok {
			lx.Handler = origin
		}
	}
	if len(c.Sources) == 0 {
		toOrigin(c.Ex)
	}
	c.Ex = tracedExchanger{inner: c.Ex, t: t}
	for i := range c.Sources {
		if c.Sources[i].Name == "origin" {
			toOrigin(c.Sources[i].Ex)
		}
		c.Sources[i].Ex = tracedExchanger{inner: c.Sources[i].Ex, t: t}
	}
}
