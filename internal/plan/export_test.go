package plan

// FingerprintMemoized reports whether n carries its memoized fingerprint.
func FingerprintMemoized(n *Node) bool { return n.fp.Load() != nil }
