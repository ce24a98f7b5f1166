package main

import (
	"bytes"
	"fmt"
	"testing"
)

// inputBytes serialises everything the servers are sent for one seed:
// every request body in the order each client sends it (ingest and
// kernel: one cycle of the client's sequence; delta-fleet: the base
// bodies and the first chains' delta bodies).
func inputBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	ing, err := genIngest(seed)
	if err != nil {
		t.Fatal(err)
	}
	ker, err := genKernel(seed)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := genFleet(seed)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < numClients; c++ {
		fmt.Fprintf(&b, "ingest client %d\n", c)
		for _, i := range ing.seqs[c] {
			b.Write(ing.ops[i].body)
		}
		fmt.Fprintf(&b, "kernel client %d\n", c)
		for _, i := range ker.seqs[c] {
			b.Write(ker.ops[i].body)
		}
		fmt.Fprintf(&b, "fleet client %d\n", c)
		cg := newChainGen(fl, c)
		for n := 0; n < 50; n++ {
			ch := cg.draw()
			b.Write(ch.base.body)
			for _, ins := range ch.insert {
				b.Write(deltaBody(ins, ch.base.mode))
			}
		}
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := inputBytes(t, 7), inputBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

// Every ingest body must miss the daemon's 64-entry LRU: between two
// sends of one body, each client sends all of its other bodies.
func TestIngestBodiesOutnumberCache(t *testing.T) {
	in, err := genIngest(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for c := range in.seqs {
		if len(in.seqs[c]) < 33 {
			t.Fatalf("client %d cycles through only %d bodies", c, len(in.seqs[c]))
		}
		for _, i := range in.seqs[c] {
			key := string(in.ops[i].body)
			if seen[key] {
				t.Fatalf("body %d sent twice per cycle", i)
			}
			seen[key] = true
		}
	}
	if len(seen) <= 64 {
		t.Fatalf("%d distinct bodies fit the 64-entry cache", len(seen))
	}
}
