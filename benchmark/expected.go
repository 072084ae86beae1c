package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed the committed digests were taken at.
const defaultSeed = 42

//go:embed expected/digests.json
var expectedJSON []byte

// checkExpected compares got with the digest committed under key in
// expected/digests.json. Other seeds make other inputs, so only the
// default seed is held to the committed value; it returns "" when there is
// nothing to object to.
func checkExpected(key string, seed uint64, got string) string {
	if seed != defaultSeed {
		return ""
	}
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Sprintf("expected/digests.json: %v", err)
	}
	if want[key] != got {
		return fmt.Sprintf("digest %s is %s, committed value is %q", key, got, want[key])
	}
	return ""
}
