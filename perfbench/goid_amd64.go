package main

// goid identifies the calling goroutine by the address of its runtime
// descriptor, read from thread-local storage: a few nanoseconds, where
// parsing runtime.Stack costs microseconds on a deep stack. The address
// is stable for the goroutine's life and may be reused after it exits.
func goid() uintptr
