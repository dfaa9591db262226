package core

import (
	"ccsim/internal/memsys"
	"ccsim/internal/stats"
)

// MsgType enumerates every message of the coherence and synchronization
// protocols.
type MsgType int

const (
	// Cache -> home requests.
	MsgReadReq   MsgType = iota // read miss (Prefetch flag marks prefetches)
	MsgOwnReq                   // ownership request (write to Shared/Invalid)
	MsgUpdateReq                // CW: propagate combined writes (Mask)
	MsgWBReq                    // replacement writeback of a Dirty line

	// Home -> cache replies and actions.
	MsgReadReply // data; Excl set when an exclusive (migratory) copy is supplied
	MsgOwnAck    // ownership granted; carries data when the requester lost its copy
	MsgUpdateAck // update complete; Excl set when the updater became exclusive owner
	MsgInv       // invalidate
	MsgFwd       // forward a read/write miss to the dirty owner (Mig marks migratory takeaway)
	MsgUpdCopy   // update forwarded to a sharer (Probe marks CW+M interrogation)

	MsgWBAck // writeback accepted (frees the cache's writeback buffer entry)

	// Cache -> home responses.
	MsgInvAck   // invalidation done
	MsgFwdReply // data from the owner back to home (Wrote reports modification)
	MsgUpdAck   // sharer processed an update (Removed: copy self-invalidated; GaveUp: CW+M migratory give-up)

	// Synchronization (processor <-> lock/barrier home).
	MsgLockReq
	MsgLockGrant
	MsgLockRel
	MsgRelAck // release acknowledgment (used under SC)
	MsgBarArrive
	MsgBarGo

	// MsgPrefNack rejects a prefetch that found the block dirty in another
	// cache: fetching it would disturb the active writer for a speculative
	// gain (the DASH prefetch design makes the same choice). Demand misses
	// are never nacked. Under P+M, prefetches to migratory blocks are not
	// nacked either — they intentionally take the block exclusively
	// (read-exclusive prefetching, paper §3.4).
	MsgPrefNack
)

var msgNames = [...]string{
	MsgReadReq: "ReadReq", MsgOwnReq: "OwnReq", MsgUpdateReq: "UpdateReq",
	MsgWBReq: "WBReq", MsgReadReply: "ReadReply", MsgOwnAck: "OwnAck",
	MsgUpdateAck: "UpdateAck", MsgInv: "Inv", MsgFwd: "Fwd", MsgWBAck: "WBAck",
	MsgUpdCopy: "UpdCopy", MsgInvAck: "InvAck", MsgFwdReply: "FwdReply",
	MsgUpdAck: "UpdAck", MsgLockReq: "LockReq", MsgLockGrant: "LockGrant",
	MsgLockRel: "LockRel", MsgRelAck: "RelAck", MsgBarArrive: "BarArrive",
	MsgBarGo: "BarGo", MsgPrefNack: "PrefNack",
}

func (t MsgType) String() string {
	if t < 0 || int(t) >= len(msgNames) {
		return ""
	}
	return msgNames[t]
}

// Msg is one protocol message.
type Msg struct {
	Type  MsgType
	Block memsys.Block
	Src   int // sending node
	Dst   int // receiving node

	Requester int              // original requester, for forwarded messages
	Txn       uint64           // telemetry span this message belongs to (0 = untracked)
	Stamp     int              // home bookkeeping: grant generation at arrival
	Payload   memsys.BlockData // word versions, when data verification is on
	Mask      memsys.WordMask  // dirty words, for updates
	BarID     int              // barrier identity, for BarArrive/BarGo

	Data     bool // message carries a whole data block
	Excl     bool // exclusive supply (migratory read / update-to-owner)
	Prefetch bool // request originated from the prefetcher
	Mig      bool // Fwd is a migratory takeaway
	Probe    bool // UpdCopy doubles as a CW+M migratory interrogation
	Wrote    bool // FwdReply: the owner had modified the copy
	Removed  bool // UpdAck: the sharer invalidated its copy
	GaveUp   bool // UpdAck: the copy was surrendered for migratory detection
}

// Message header size in bytes (command + full address + source/destination
// routing + transaction tags — DASH-era directory protocols carried 16-byte
// request headers).
const headerBytes = 16

// Size returns the message's size in bytes on the interconnect.
func (m *Msg) Size() int {
	switch {
	case m.Type == MsgUpdateReq || m.Type == MsgUpdCopy:
		return headerBytes + m.Mask.Bytes()
	case m.Data:
		return headerBytes + memsys.BlockSize
	default:
		return headerBytes
	}
}

// Class returns the traffic-accounting class of the message.
func (m *Msg) Class() stats.MsgClass {
	switch m.Type {
	case MsgUpdateReq, MsgUpdCopy:
		return stats.UpdateMsg
	case MsgLockReq, MsgLockGrant, MsgLockRel, MsgRelAck, MsgBarArrive, MsgBarGo:
		return stats.SyncMsg
	default:
		if m.Data {
			return stats.DataMsg
		}
		return stats.CtlMsg
	}
}

// toHome reports whether the message is handled by the destination's home
// (directory) controller rather than its cache controller.
func (m *Msg) toHome() bool {
	switch m.Type {
	case MsgReadReq, MsgOwnReq, MsgUpdateReq, MsgWBReq,
		MsgInvAck, MsgFwdReply, MsgUpdAck,
		MsgLockReq, MsgLockRel, MsgBarArrive:
		return true
	}
	return false
}
