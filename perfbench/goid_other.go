//go:build !amd64

package main

import "runtime"

// goid identifies the calling goroutine by the ID in the header line of
// its stack trace ("goroutine 123 [running]:"). It is slow on deep
// stacks; amd64 builds read the goroutine descriptor instead.
func goid() uintptr {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
