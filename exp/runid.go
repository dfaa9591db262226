package exp

import (
	"crypto/sha256"
	"encoding/hex"

	"ccsim"
)

// RunID derives the stable identifier for one run in logs:
// workload/protocol/fingerprint-prefix, e.g. "mp3d/CW/1a2b3c4d". The
// store-quarantine log records and the fault report at the end of a sweep
// tag the same run with the same id, so the two cross-reference directly.
//
// The identity is the configuration's canonical fingerprint, computed with
// side channels stripped: attaching a checker or trace writer never
// changes a run's id, and two sweeps naming the same configuration name
// the same id.
func RunID(cfg ccsim.Config) string {
	bare := cfg
	detachSideChannels(&bare)
	key, _ := Fingerprint(bare)
	sum := sha256.Sum256([]byte(key))
	return cfg.Workload + "/" + cfg.ProtocolName() + "/" + hex.EncodeToString(sum[:4])
}
