// Package storeops lets the sketch codecs reuse stores through two
// operations that package store keeps out of its public API: decoding
// into a store that is being reused, and sizing a dense store once for
// a known index range. Package store installs both from its init
// function, so they are set in any program that imports store.
//
// This package cannot name store's types, because store imports it, so
// the operations are generic: S is store.Store and D is
// *store.DenseStore. Calling one with other types panics.
package storeops

import "github.com/ddsketch-go/ddsketch/encoding"

var decodeInto, resetDense any

// Install sets the operations. Package store calls it from init.
func Install[S, D any](decode func(r *encoding.Reader, dst S) (S, error), reset func(d D, lo, hi int) D) {
	decodeInto, resetDense = decode, reset
}

// DecodeInto reads a store written by Store.Encode. dst, which may be
// nil, is reused, emptied first, when it has the encoded type and bin
// limit; otherwise a new store is built.
func DecodeInto[S any](r *encoding.Reader, dst S) (S, error) {
	return decodeInto.(func(*encoding.Reader, S) (S, error))(r, dst)
}

// ResetDense empties d, or a new dense store when d is nil, and sizes
// its array so that every index in [lo, hi] is addressable without
// growing it. The array is kept when it is long enough.
func ResetDense[D any](d D, lo, hi int) D {
	return resetDense.(func(D, int, int) D)(d, lo, hi)
}
