package main

import (
	"strconv"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts by a fifth or more over seconds and minutes, with the same
// effect on wall time and on CPU time. A fixed kernel, timed between
// operations all through a run, measures that speed; each end-to-end
// time is then reported at a reference speed: the measured time times
// calibRefMS ÷ the run's median kernel time (a rate divided by it).
// The kernel is the benchmark's own code, so a change to the program
// moves the end-to-end metrics by exactly as much as it moves wall time
// at a steady host speed. The unscaled figures go to standard error.

// calibRefMS is the kernel's median time on the 2-core machine the
// benchmark was tuned on.
const calibRefMS = 2.0

type calNode struct {
	next *calNode
	v    uint64
}

var calSink uint64

// calibrate runs the kernel once and returns its wall time in ms. The
// kernel mixes what the program does most: chasing pointers through
// freshly allocated objects, string-keyed map updates, and a
// switch-dispatched loop.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	nodes := make([]*calNode, 16384)
	for i := range nodes {
		nodes[i] = &calNode{v: uint64(i)}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i+1 < len(nodes); i++ {
		nodes[i].next = nodes[i+1]
	}
	var s uint64
	for r := 0; r < 4; r++ {
		for n := nodes[0]; n != nil; n = n.next {
			s += n.v
		}
	}
	m := map[string]int{}
	for i := 0; i < 4000; i++ {
		m["k"+strconv.Itoa(int(rnd()%2048))] += i
	}
	s += uint64(len(m))
	code := [8]byte{0, 1, 2, 3, 1, 0, 2, 3}
	acc := uint64(1)
	for i := 0; i < 200000; i++ {
		switch code[i&7] {
		case 0:
			acc += uint64(i)
		case 1:
			acc ^= acc >> 3
		case 2:
			acc *= 3
		case 3:
			acc -= uint64(i) >> 1
		}
	}
	calSink += s + acc
	return float64(time.Since(start)) / 1e6
}
