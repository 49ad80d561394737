package cluster

// MaxReplayBytes exposes the replay response cap to the external tests.
const MaxReplayBytes = maxReplayBytes

// WireOps exposes the wire operations the store server serves.
var WireOps = wireOps
