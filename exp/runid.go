package exp

import (
	"crypto/sha256"
	"encoding/hex"

	"ccsim"
)

// RunID derives the stable cross-cutting identifier for one run:
// workload/protocol/fingerprint-prefix, e.g. "mp3d/CW/1a2b3c4d". Every
// operational surface — store-quarantine log records, the fault ledger,
// /status, and the dashboard — tags the same run with the same id, so logs
// and the dashboard cross-reference directly.
//
// The identity is the configuration's canonical fingerprint, computed with
// side channels stripped: attaching a probe, checker, or trace writer
// never changes a run's id, and two sweeps naming the same configuration
// name the same id.
func RunID(cfg ccsim.Config) string {
	bare := cfg
	detachSideChannels(&bare)
	key, _ := Fingerprint(bare)
	sum := sha256.Sum256([]byte(key))
	return cfg.Workload + "/" + cfg.ProtocolName() + "/" + hex.EncodeToString(sum[:4])
}
