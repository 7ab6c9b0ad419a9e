package main

import (
	"fmt"
	"math/rand"

	"upkit/internal/testbed"
	"upkit/internal/vendorserver"
)

// appID is the application every generated release belongs to.
const appID = 0x2A

// chain generates a workload's firmware releases from its seed: version
// 1 is a synthetic image of imageBytes, and each later version copies
// its predecessor with editBytes random bytes overwritten in one
// editBytes-aligned slot of the image — an application change of the
// size Fig. 8b uses. A release never edits a slot one of the previous
// recent releases edited, so a diff across any recent releases covers
// disjoint edits and its size does not swing with chance overlaps. The
// same seed always yields the same chain.
type chain struct {
	rng       *rand.Rand
	editBytes int
	recent    int
	fw        [][]byte // fw[v-1] is version v
	slots     []int    // slot edited by each version after the first
}

func newChain(seed int64, imageBytes, editBytes, recent int) *chain {
	return &chain{
		rng:       rand.New(rand.NewSource(seed)),
		editBytes: editBytes,
		recent:    recent,
		fw:        [][]byte{testbed.MakeFirmware(fmt.Sprintf("perfbench-%d", seed), imageBytes)},
	}
}

// version returns the firmware of version v (≥ 1), generating the chain
// up to it.
func (c *chain) version(v uint16) []byte {
	for len(c.fw) < int(v) {
		prev := c.fw[len(c.fw)-1]
		next := append([]byte(nil), prev...)
		nslots := len(next) / c.editBytes
		slot := c.rng.Intn(nslots)
		for c.recentlyEdited(slot) {
			slot = (slot + 1) % nslots
		}
		c.slots = append(c.slots, slot)
		c.rng.Read(next[slot*c.editBytes : (slot+1)*c.editBytes])
		c.fw = append(c.fw, next)
	}
	return c.fw[v-1]
}

func (c *chain) recentlyEdited(slot int) bool {
	for _, s := range c.slots[max(len(c.slots)-c.recent, 0):] {
		if s == slot {
			return true
		}
	}
	return false
}

// release is the vendor release of version v.
func (c *chain) release(v uint16) vendorserver.Release {
	return vendorserver.Release{AppID: appID, Version: v, Firmware: c.version(v), LinkOffset: 0xFFFFFFFF}
}
