package corpus

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// nearMissPrefix is how many leading hex characters two digests must
// share before one is suggested as a near miss of the other. Four
// characters (16 bits) keeps coincidental suggestions rare even in
// large corpora while still catching truncated copy-pastes.
const nearMissPrefix = 4

// minResolvePrefix is the shortest digest prefix ResolvePrefix accepts.
// Shorter prefixes are almost always typos, and in a big corpus they
// would be ambiguous anyway.
const minResolvePrefix = 4

// notFoundLocked builds the ErrNotFound error for an unknown digest,
// listing stored digests that share a leading prefix with it — the
// usual failure is a truncated or mistyped copy-paste, and the fix is
// faster when the error names the likely intended trace. Caller holds
// s.mu. The result wraps ErrNotFound, so errors.Is keeps working.
func (s *Store) notFoundLocked(id trace.Digest) error {
	matches := s.prefixMatchesLocked(id.String()[:nearMissPrefix])
	if len(matches) == 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if len(matches) > 3 {
		matches = matches[:3]
	}
	short := make([]string, len(matches))
	for i, m := range matches {
		short[i] = m.String()[:12]
	}
	return fmt.Errorf("%w: %s (near misses stored: %s)",
		ErrNotFound, id, strings.Join(short, ", "))
}

// prefixMatchesLocked returns the members' digests beginning with the
// given hex prefix, sorted. Caller holds s.mu.
func (s *Store) prefixMatchesLocked(prefix string) []trace.Digest {
	var out []trace.Digest
	for id := range s.metas {
		if strings.HasPrefix(id.String(), prefix) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ResolvePrefix resolves a short hex digest prefix (git-style) to the
// unique stored digest beginning with it, searching every tier: the
// known members and — when a blob tier is configured — the bucket's
// key space, so a trace held only remotely (disk-evicted here, or written
// by another cluster node) resolves the same way a local one does. A
// full digest resolves to itself. No match wraps ErrNotFound; several
// matches is an error listing them.
func (s *Store) ResolvePrefix(prefix string) (trace.Digest, error) {
	prefix = strings.ToLower(prefix)
	if len(prefix) < minResolvePrefix {
		return trace.Digest{}, fmt.Errorf(
			"corpus: digest prefix %q too short (need at least %d hex chars)",
			prefix, minResolvePrefix)
	}
	for _, c := range prefix {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return trace.Digest{}, fmt.Errorf("corpus: digest prefix %q is not hex", prefix)
		}
	}
	s.mu.Lock()
	matches := s.prefixMatchesLocked(prefix)
	s.mu.Unlock()
	if s.blob != nil {
		// Object keys start with the hex digest, so the bucket answers a
		// digest-prefix query directly. A listing failure degrades to
		// local-only resolution rather than failing the lookup: the
		// local answer is still correct for everything this node holds.
		if keys, err := s.blobList(context.Background(), s.blobKey(prefix)); err == nil {
			seen := make(map[trace.Digest]bool, len(matches))
			for _, m := range matches {
				seen[m] = true
			}
			for _, k := range keys {
				base := strings.TrimPrefix(k, s.blobPrefix)
				idStr, _, ok := strings.Cut(base, ".")
				if !ok {
					continue
				}
				id, err := trace.ParseDigest(idStr)
				if err != nil || seen[id] {
					continue
				}
				seen[id] = true
				matches = append(matches, id)
			}
			sort.Slice(matches, func(i, j int) bool {
				return matches[i].String() < matches[j].String()
			})
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return trace.Digest{}, fmt.Errorf("%w: no stored digest matches prefix %q", ErrNotFound, prefix)
	default:
		if len(matches) > 5 {
			matches = matches[:5]
		}
		short := make([]string, len(matches))
		for i, m := range matches {
			short[i] = m.String()[:12]
		}
		return trace.Digest{}, fmt.Errorf("corpus: digest prefix %q is ambiguous (%s)",
			prefix, strings.Join(short, ", "))
	}
}
