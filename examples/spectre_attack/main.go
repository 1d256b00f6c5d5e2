// Spectre demo: run the bounds-check-bypass gadget against all six
// schemes and show the cache side channel directly — which probe-array
// slots are hot after the transient window. Attack verdicts are security
// checks: they always re-simulate (the cell cache is for performance
// cells), which is why this program runs the whole matrix via
// SpectreV1All every time.
package main

import (
	"fmt"
	"log"

	sb "repro"
	"repro/internal/attack"
)

func main() {
	cfg := sb.MegaConfig()
	fmt.Println("Spectre v1: if (x < array1_size) y = array2[(array1[x]&63)*512]")
	fmt.Printf("planted secret value: %d -> probe slot %d\n", attack.SecretValue, attack.SecretValue&63)
	// Scheme names come from the core's scheme roster — the same strings
	// the CLIs' -schemes flag accepts.
	fmt.Printf("registered schemes: %v\n\n", sb.SchemeNames())

	results, err := sb.SpectreV1All(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-12s ", r.Scheme)
		switch {
		case r.Leaked && r.GuessedSecret >= 0:
			fmt.Printf("LEAKED: probe slot %d hot -> secret & 63 = %d\n", r.GuessedSecret, r.GuessedSecret)
		case r.Leaked:
			fmt.Printf("LEAKED: hot slots %v\n", r.HotSlots)
		default:
			fmt.Println("blocked: no secret-indexed probe line was filled")
		}
	}

	fmt.Println("\nSpeculative Store Bypass (Spectre v4): *p = 0 ; y = buf[0] ; probe[y&63]")
	fmt.Printf("planted stale secret: %d -> probe slot %d\n\n", attack.SSBSecret, attack.SSBSecret&63)
	for _, scheme := range sb.Schemes() {
		r, err := sb.SpectreSSB(cfg, scheme)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s ", r.Scheme)
		if r.Leaked {
			fmt.Printf("LEAKED: hot slots %v\n", r.HotSlots)
		} else {
			fmt.Println("blocked")
		}
	}

	fmt.Println("\nWhy the schemes win:")
	fmt.Println(" - STT taints the transient array1[x] value; the dependent array2 load is a")
	fmt.Println("   transmitter and cannot issue until the taint root is bound to commit —")
	fmt.Println("   which never happens, because the branch resolves and squashes it.")
	fmt.Println(" - NDA never broadcasts the speculative array1[x] value, so the dependent")
	fmt.Println("   load's operands never become ready inside the transient window.")
}
