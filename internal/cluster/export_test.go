package cluster

// MaxReplayBytes exposes the replay response cap to the external tests.
const MaxReplayBytes = maxReplayBytes
